from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintop import finite_space as F
from fintop import homology as H
from fintop import linalg as L
from fintop import metric as M
from fintop import simplicial as S

from oracles import boundary_columns, coboundary_columns, euler_characteristic


def triangle_boundary():
    cx = S.SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    return cx


def test_complex_closure_and_fvector():
    cx = S.SimplicialComplex([(2, 0, 1)])
    assert cx.f_vector() == [3, 3, 1]
    assert (0, 1) in cx and (1,) in cx and (0, 1, 2) in cx
    assert euler_characteristic(cx) == 1


def test_boundary_squares_to_zero():
    cx = S.SimplicialComplex([(0, 1, 2, 3)])
    for d in range(1, cx.dimension + 1):
        prod = cx.boundary_matrix(d - 1) @ cx.boundary_matrix(d) if d >= 2 else None
        if prod is not None:
            assert not prod.any()


def test_coboundary_is_the_reversed_transpose_of_the_boundary():
    cx = S.SimplicialComplex([(0, 1, 2, 3), (2, 4), (3, 4, 5)])
    for d in range(-1, cx.dimension + 2):
        # both simplex orders reversed
        dense = cx.boundary_matrix(d + 1)[::-1, ::-1].T
        assert L.to_sparse_columns(dense) == cx.coboundary_sparse(d)


def test_rips_circle_levels_2_and_3():
    s2 = M.circle_sample(2)
    cx2 = S.vietoris_rips(s2.pairwise(), 4 * s2.epsilon, max_dim=3)
    # 4*eps_2 = 2*pi exceeds every geodesic distance: full simplex on 4 points
    assert cx2.f_vector() == [4, 6, 4, 1]
    s3 = M.circle_sample(3)
    cx3 = S.vietoris_rips(s3.pairwise(), 4 * s3.epsilon, max_dim=3)
    # 4*eps_3 spans 4 grid gaps: windows of <= 4 consecutive points
    assert cx3.f_vector() == [32, 32 * 3, 32 * 3, 32]
    n0, n1, n2 = (len(cx3.simplices(d)) for d in range(3))
    d1, d2 = cx3.boundary_sparse(1), cx3.boundary_sparse(2)
    r1, r2 = L.rank_q(d1), L.rank_q(d2)
    assert (n0 - r1, n1 - r1 - r2) == (1, 1)   # a circle


def test_rips_threshold_is_strict():
    pw = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert S.vietoris_rips(pw, 1.0, max_dim=1).f_vector() == [2]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.floats(0.5, 20.0), st.sampled_from([0.0, 1e-9, 1e-3]),
       st.randoms(use_true_random=False))
def test_rips_graph_matches_per_pair_loop(n, threshold, tol, rnd):
    """Ties planted at the threshold and at threshold -+ slack, and one ulp
    to either side, resolve as `metric.below` does on each pair alone."""
    slack = tol * max(1.0, threshold)
    ties = [threshold, threshold - slack, threshold + slack]
    ties += [np.nextafter(t, side) for t in ties for side in (0.0, np.inf)]
    pw = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = rnd.choice(ties) if rnd.random() < 0.6 else rnd.uniform(0, 2 * threshold)
            pw[i, j] = pw[j, i] = d
    expected = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if M.below(float(pw[i, j]), threshold, tol):
                expected[i].append(j)
                expected[j].append(i)
    assert S.rips_graph(pw, threshold, tol) == expected
    # only the upper triangle is read: a lower triangle and a diagonal that
    # turn every edge into a non-edge and back give the same graph
    lower = np.tril_indices(n)
    pw[lower] = np.where(M.below(pw.T[lower], threshold, tol), 3 * threshold, 0.0)
    assert S.rips_graph(pw, threshold, tol) == expected


@pytest.mark.parametrize("pw, components", [
    (np.zeros((0, 0)), 0),
    (np.zeros((1, 1)), 1),
    # only the diagonal lies below the threshold
    (np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 2.0], [3.0, 2.0, 0.0]]), 3),
], ids=["no point", "one point", "diagonal only"])
def test_rips_graph_without_edges(pw, components):
    assert S.rips_graph(pw, 1.0) == [[] for _ in range(len(pw))]
    assert H.component_count(pw, 1.0) == components


def test_rips_full_simplex():
    pw = np.zeros((4, 4)) + 1.0
    np.fill_diagonal(pw, 0.0)
    cx = S.vietoris_rips(pw, 2.0, max_dim=3)
    assert cx.f_vector() == [4, 6, 4, 1]


def test_rips_cap():
    pw = np.zeros((8, 8)) + 1.0
    np.fill_diagonal(pw, 0.0)
    with pytest.raises(S.SimplicialError):
        S.vietoris_rips(pw, 2.0, max_dim=7, max_simplices=20)
    # the vertices count before any expansion, then each whole dimension
    with pytest.raises(S.SimplicialError):
        S.vietoris_rips(pw, 2.0, max_dim=0, max_simplices=7)
    assert S.vietoris_rips(pw, 2.0, max_dim=0, max_simplices=8).f_vector() == [8]
    assert S.vietoris_rips(pw, 2.0, max_dim=1, max_simplices=36).f_vector() \
        == [8, 28]
    with pytest.raises(S.SimplicialError):
        S.vietoris_rips(pw, 2.0, max_dim=1, max_simplices=35)


def test_complex_keeps_first_appearance_order():
    cx = S.SimplicialComplex([(3, 2), (0, 1, 2), (1, 0)])
    assert cx.simplices(0) == [(2,), (3,), (0,), (1,)]
    assert cx.simplices(1) == [(2, 3), (0, 1), (0, 2), (1, 2)]
    assert cx.simplices(2) == [(0, 1, 2)]
    assert [cx.index(s) for s in cx.simplices(1)] == [0, 1, 2, 3]
    # a vertex set's place in all_simplices(), None when it is not stored:
    # the empty set, an absent edge, a set above the top dimension
    assert [cx.position(set(s)) for s in cx.all_simplices()] == list(range(9))
    assert cx.position({3, 2}) == 4 and cx.position(frozenset({2, 1, 0})) == 8
    for vertices in (set(), {0, 3}, {5}, {0, 1, 2, 3}):
        assert cx.position(vertices) is None
    # the batch form: rows of vertices in any order, repeated or padded
    # with negative entries, -1 for the absent sets, wider ones included
    assert cx.rows(1).tolist() == [[2, 3], [0, 1], [0, 2], [1, 2]]
    assert cx.positions(np.array([
        [3, 2, -1, -1], [2, 1, 0, -1], [0, 3, 3, 3], [5, -1, -1, -1],
        [0, 1, 2, 3], [1, 1, 0, -1], [-1, -1, -1, -1]])).tolist() == \
        [4, 8, -1, -1, -1, 5, -1]
    # the face table: column i is the face without vertex i, as a place
    # among the faces' dimension
    assert cx.faces(1).tolist() == [[1, 0], [3, 2], [0, 2], [0, 3]]
    assert cx.faces(2).tolist() == [[3, 2, 1]]
    with pytest.raises(S.SimplicialError, match="empty simplex"):
        S.SimplicialComplex([(0,), ()])


def test_vertex_ids_are_nonnegative_integers():
    # positions reads a negative entry as padding and needs int64 rows, so
    # a complex refuses any other vertex id, and position finds no set
    # that holds one
    for simplex in [(-1, 0), ("a", "b"), (0, 1.5), (0, 2 ** 63)]:
        with pytest.raises(S.SimplicialError, match="vertex id .* is not a "
                                                    "nonnegative integer"):
            S.SimplicialComplex([simplex])
    cx = S.SimplicialComplex([(0, 1), (np.int64(2),)])
    assert cx.simplices(0) == [(0,), (1,), (2,)]
    for vertices in ({-1, 0}, {-1}, {"a"}, {0.5}, {0, 2 ** 64}):
        assert cx.position(vertices) is None
        assert vertices not in cx


def _brute_cliques(neighbours, max_dim):
    n = len(neighbours)
    return [{c for c in combinations(range(n), k + 1)
             if all(b in neighbours[a] for a, b in combinations(c, 2))}
            for k in range(min(max_dim + 1, n))]


_graphs = st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2)))


def _neighbours(graph):
    n, edges = graph
    neighbours = [[] for _ in range(n)]
    for present, (a, b) in zip(edges, combinations(range(n), 2)):
        if present:
            neighbours[a].append(b)
            neighbours[b].append(a)
    return neighbours


@settings(max_examples=200, deadline=None)
@given(_graphs, st.integers(0, 5))
def test_clique_complex_matches_brute_force(graph, max_dim):
    neighbours = _neighbours(graph)
    cx = S.clique_complex(neighbours, max_dim)
    expected = [level for level in _brute_cliques(neighbours, max_dim) if level]
    assert [set(cx.simplices(d)) for d in range(cx.dimension + 1)] == expected
    assert cx.f_vector() == [len(level) for level in expected]
    # every simplex comes after all of its faces, and the face lookup agrees
    position = {s: i for i, s in enumerate(cx.all_simplices())}
    for s, i in position.items():
        assert cx.index(s) == cx.simplices(len(s) - 1).index(s)
        for face in combinations(s, len(s) - 1):
            if face:
                assert position[face] < i
    # every vertex set, the empty one and those above the top dimension
    # included, maps to its place in all_simplices() or to None
    n = len(neighbours)
    for k in range(n + 1):
        combos = list(combinations(range(n), k))
        for c in combos:
            assert cx.position(frozenset(c)) == position.get(c)
            assert (c in cx) is (c in position)
        # positions, the batch form: the same rows reversed, with a repeated
        # vertex and a negative pad
        rows = np.array(combos, dtype=np.int64).reshape(len(combos), k)
        want = [position.get(c, -1) for c in combos]
        assert cx.positions(rows).tolist() == want
        assert cx.positions(np.hstack([rows[:, ::-1], rows[:, :1],
                                       np.full((len(rows), 1), -1)])
                            ).tolist() == want
    for d in range(cx.dimension + 1):
        assert cx.rows(d).tolist() == [list(s) for s in cx.simplices(d)]
        # the boundaries and coboundaries read from the face table are
        # those of one tuple lookup per face, entries in the same order
        for cols, oracle in [(cx.boundary_sparse(d), boundary_columns),
                             (cx.coboundary_sparse(d), coboundary_columns)]:
            assert [list(c.items()) for c in cols] == \
                [list(c.items()) for c in oracle(cx, d)]


@settings(max_examples=200, deadline=None)
@given(_graphs, st.integers(0, 5), st.integers(0, 60))
def test_clique_complex_cap(graph, max_dim, cap):
    # the cap counts the vertices, then each finished dimension: it raises
    # exactly when the capped complex has more than cap simplices
    neighbours = _neighbours(graph)
    size = sum(map(len, _brute_cliques(neighbours, max_dim)))
    if size > cap:
        with pytest.raises(S.SimplicialError, match=f"cap of {cap} simplices"):
            S.clique_complex(neighbours, max_dim, max_simplices=cap)
    else:
        assert len(S.clique_complex(neighbours, max_dim, max_simplices=cap)) \
            == size


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=12))), st.integers(1, 5))
def test_order_complex_matches_brute_chains(poset, max_chain):
    rank, pairs = poset
    n = len(rank)
    # a <= b only where rank[a] < rank[b], so the relation is acyclic; the
    # ranks, not the positions, decide which element of a pair is lower
    labels = [f"x{n - i}" for i in range(n)]
    space = F.FiniteSpace(labels, [(labels[a], labels[b])
                                   for a, b in pairs if rank[a] < rank[b]])
    chains = {c for k in range(1, max_chain + 1)
              for c in combinations(range(n), k)
              if all(space.leq(labels[a], labels[b]) or
                     space.leq(labels[b], labels[a])
                     for a, b in combinations(c, 2))}
    oc = space.order_complex(max_chain)
    assert set(oc.all_simplices()) == chains
    assert len(oc) == len(chains)


def test_connected_components():
    adj = S.rips_graph(np.array([[0, 1, 9], [1, 0, 9], [9, 9, 0]], dtype=float), 2.0)
    assert S.connected_components(3, adj) == 2


def test_subdivision_counts():
    # subdividing a single triangle: 7 vertices, 12 edges, 6 triangles
    cx = S.SimplicialComplex([(0, 1, 2)])
    sd = F.face_poset(cx).order_complex()
    assert sd.f_vector() == [7, 12, 6]
    assert euler_characteristic(sd) == euler_characteristic(cx)


def test_subdivision_hollow_triangle():
    sd = F.face_poset(triangle_boundary()).order_complex()
    assert sd.f_vector() == [6, 6]
    assert euler_characteristic(sd) == 0


def test_elementary_collapse_cone():
    # a filled triangle collapses to a point
    cx = S.SimplicialComplex([(0, 1, 2)])
    out = S.elementary_collapse(cx)
    assert len(out) == 1 and out.dimension == 0


def test_collapse_preserves_hollow_square_homology():
    cx = S.SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (0, 1, 4)])
    out = S.elementary_collapse(cx)
    # the dangling cone collapses away; the loop cannot
    assert euler_characteristic(out) == 0
    d1 = out.boundary_sparse(1)
    n0, n1 = len(out.simplices(0)), len(out.simplices(1))
    b0 = n0 - L.rank_q(d1)
    b1 = n1 - L.rank_q(d1)
    assert (b0, b1) == (1, 1)


def test_rank_q_known():
    assert L.rank_q(L.to_sparse_columns(np.array([[1, 2], [2, 4]]))) == 1
    assert L.rank_q(L.to_sparse_columns(np.array([[1, 0], [0, 1]]))) == 2
    assert L.rank_q(L.to_sparse_columns(np.zeros((3, 2), dtype=int))) == 0


def test_rank_gfp_vs_q_differ_on_torsion_like_matrix():
    mat = L.to_sparse_columns(np.array([[2]]))
    assert L.rank_q(mat) == 1
    assert L.rank_gfp(mat, 2) == 0
    assert L.rank_gfp(mat, 3) == 1


def test_smith_normal_form_klein_bottle_style():
    # d1 of RP^2-like presentation: invariant factor 2 appears
    assert L.smith_normal_form(L.to_sparse_columns(np.array([[2, 0], [0, 3]]))) \
        == [1, 6]
    assert L.smith_normal_form(L.to_sparse_columns(np.array([[2]]))) == [2]
    assert L.smith_normal_form(L.to_sparse_columns(np.zeros((2, 2), dtype=int))) \
        == []


@pytest.mark.parametrize("rows, invariants", [
    # two non-unit pivots with distinct low rows: the whole residue is dense
    ([[2, 0], [0, 3]], [1, 6]),
    # low entry 3 against a pivot with low entry 2: the extended gcd
    # replaces the pivot by one with low entry 1
    ([[2, 3]], [1]),
    # the same, leaving the column with low entry -3 as the residue
    ([[1, 0], [2, 3]], [1, 3]),
    # the residue column is cleared in the unit pivot's row before the
    # dense form; left as it is, the first case would give [1, 1], and
    # with the unit row dropped uncleared, the second [1, 2]
    ([[1, 1], [0, 2]], [1, 2]),
    ([[1, 0], [1, 1], [0, 2]], [1, 1]),
])
def test_smith_normal_form_unimodular_branches(rows, invariants):
    mat = np.array(rows)
    assert L._smith_dense(mat) == invariants
    assert L.smith_normal_form(L.to_sparse_columns(mat)) == invariants


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-6, 6), min_size=rows, max_size=rows),
    min_size=1, max_size=7)))
def test_smith_normal_form_matches_dense_oracle(columns):
    mat = np.array(columns, dtype=int).T
    expected = L._smith_dense(mat)
    assert L.smith_normal_form(L.to_sparse_columns(mat)) == expected


def test_nullspace_and_span():
    # no boundaries: the homology basis is a kernel basis of the matrix
    mat = L.to_sparse_columns(np.array([[1, 1, 0], [0, 0, 1]]))
    hb = L.SparseHomology(mat, [])
    assert hb.betti == 1
    v = hb.reps[0]
    assert v.get(0, 0) + v.get(1, 0) == 0 and v.get(0, 0) != 0
    assert v.get(2, 0) == 0
    assert all(isinstance(x, Fraction) for x in v.values())
    # express inverts the span: 3 * v has coordinate 3
    assert hb.express({r: 3 * x for r, x in v.items()}) == [3]
    with pytest.raises(ValueError, match="not a cycle"):
        hb.express({2: 1})


def test_homology_basis_circle_complex():
    cx = triangle_boundary()
    d1, d2 = cx.boundary_sparse(1), cx.boundary_sparse(2)  # d2 is empty
    hb = L.SparseHomology(d1, d2)
    assert hb.betti == 1
    z = hb.reps[0]
    # a cycle: d1 z = 0, and it uses every edge of the triangle
    assert all(sum(z.get(j, 0) * col.get(r, 0) for j, col in enumerate(d1)) == 0
               for r in range(3))
    assert sorted(z) == [0, 1, 2]
    # round trip: the class of -2 z is -2 times the basis class
    assert hb.express({j: -2 * x for j, x in z.items()}) == [Fraction(-2)]
    # a single edge is not a 1-cycle
    with pytest.raises(ValueError, match="not a cycle"):
        hb.express({0: 1})
    # filled in, the edge cycle is a boundary: H_1 = 0, its class is zero
    filled = S.SimplicialComplex([(0, 1, 2)])
    hb = L.SparseHomology(filled.boundary_sparse(1), filled.boundary_sparse(2))
    assert hb.betti == 0
    assert hb.express(filled.boundary_sparse(2)[0]) == []


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda rows: st.lists(
    st.lists(st.integers(-6, 6), min_size=rows, max_size=rows),
    min_size=1, max_size=5)))
def test_ranks_agree_with_smith_normal_form(columns):
    mat = np.array(columns, dtype=int).T
    invariants = L._smith_dense(mat)
    cols = L.to_sparse_columns(mat)
    assert L.rank_q(cols) == len(invariants)
    for p in (2, 3, 5):
        assert L.rank_gfp(cols, p) == sum(1 for d in invariants if d % p)


def test_is_prime_takes_any_size():
    # a float square root overflows above about 10^308
    assert not L.is_prime(10 ** 400)
    assert L.is_prime(2 ** 31 - 1)


def test_rank_gfp_rejects_non_prime():
    for p in (0, 1, 4, 9, -3):
        with pytest.raises(ValueError, match="not prime"):
            L.rank_gfp([{0: 1}], p)


def test_induced_map_rank_identity_circle():
    cx = triangle_boundary()
    d1 = L.to_sparse_columns(cx.boundary_matrix(1))
    n1 = len(cx.simplices(1))
    ident = [{j: 1} for j in range(n1)]
    d2: list = []
    rank = L.induced_map_rank(d2, ident, d1, rows_y_k=n1)
    assert rank == 1


def test_induced_map_rank_zero_map():
    cx = triangle_boundary()
    d1 = L.to_sparse_columns(cx.boundary_matrix(1))
    n1 = len(cx.simplices(1))
    zero = [dict() for _ in range(n1)]
    assert L.induced_map_rank([], zero, d1, rows_y_k=n1) == 0


def test_induced_map_rank_rejects_non_prime():
    cx = triangle_boundary()
    d1 = cx.boundary_sparse(1)
    ident = [{j: 1} for j in range(len(d1))]
    for p in (0, 1, 4, 9, -3):
        with pytest.raises(ValueError, match="not prime"):
            L.induced_map_rank([], ident, d1, rows_y_k=len(d1), p=p)
