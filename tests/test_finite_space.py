import pytest
from hypothesis import given, settings, strategies as st

from fintop import finite_space as F
from fintop import simplicial as S


def poset_v():
    # two closed points a, b under one open point c:  a <= c, b <= c
    return F.FiniteSpace(["a", "b", "c"], leq_pairs=[("a", "c"), ("b", "c")])


def powerset_space(points):
    """FASO-style space: nonempty subsets, C <= D iff D is a subset of C."""
    elems = []
    for mask in range(1, 2 ** len(points)):
        elems.append(frozenset(p for i, p in enumerate(points) if mask >> i & 1))
    return F.FiniteSpace(elems, leq_pairs=[(c, d) for c in elems for d in elems
                                           if d < c])


def test_min_open_and_closure():
    sp = poset_v()
    assert sp.min_open("a") == {"a", "c"}
    assert sp.min_open("c") == {"c"}
    assert sp.closure("c") == {"a", "b", "c"}
    assert sp.closure("a") == {"a"}


def test_min_open_singleton_in_powerset_space():
    sp = powerset_space([0, 1])
    a0 = frozenset([0])
    assert sp.min_open(a0) == {a0}
    both = frozenset([0, 1])
    assert sp.min_open(both) == {both, frozenset([0]), frozenset([1])}


def test_t0_violation_rejected():
    with pytest.raises(F.FiniteSpaceError):
        F.FiniteSpace(["a", "b"], leq_pairs=[("a", "b"), ("b", "a")])


def test_transitive_closure():
    sp = F.FiniteSpace([1, 2, 3], leq_pairs=[(1, 2), (2, 3)])
    assert sp.leq(1, 3)
    assert sp.covers() == [(1, 2), (2, 3)]


def test_opposite_involution_and_reversal():
    sp = poset_v()
    op = sp.opposite()
    assert op.leq("c", "a") and not op.leq("a", "c")
    back = op.opposite()
    assert all(back.min_open(x) == sp.min_open(x) for x in sp.elements)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
def test_opposite_involution_random(pairs):
    pairs = [(a, b) for a, b in pairs if a < b]
    sp = F.FiniteSpace(range(6), leq_pairs=pairs)
    back = sp.opposite().opposite()
    assert all(back.min_open(x) == sp.min_open(x) for x in sp.elements)


def test_order_preserving_maps():
    sp = poset_v()
    ident = {x: x for x in sp.elements}
    assert sp.is_order_preserving(ident, sp)
    swap = {"a": "b", "b": "a", "c": "c"}
    assert sp.is_order_preserving(swap, sp)
    bad = {"a": "c", "b": "b", "c": "a"}     # a <= c but c > a in the image
    assert not sp.is_order_preserving(bad, sp)


def test_pointwise_comparable():
    sp = poset_v()
    const_c = {x: "c" for x in sp.elements}
    ident = {x: x for x in sp.elements}
    assert sp.pointwise_comparable(ident, const_c, sp)
    swap = {"a": "b", "b": "a", "c": "c"}
    assert not sp.pointwise_comparable(ident, swap, sp)


def test_order_complex_of_v():
    cx = poset_v().order_complex()
    # chains: 3 singletons, a<c and b<c
    assert cx.f_vector() == [3, 2]


def test_order_complex_chain_cap():
    sp = F.FiniteSpace([1, 2, 3], leq_pairs=[(1, 2), (2, 3)])
    assert sp.order_complex().f_vector() == [3, 3, 1]
    assert sp.order_complex(max_chain=2).f_vector() == [3, 3]


def test_face_poset_roundtrip_is_subdivision():
    # order complex of the face poset of K is the barycentric subdivision of K
    K = S.SimplicialComplex([(0, 1, 2)])
    oc = F.face_poset(K).order_complex()
    assert oc.f_vector() == [7, 12, 6]


def test_json_roundtrip_and_dot():
    sp = poset_v()
    dot = F.to_dot(sp)
    assert '"a" -> "c";' in dot and dot.startswith("digraph")


def test_dot_cap():
    antichain = F.FiniteSpace(range(F.DOT_CAP + 1))
    with pytest.raises(F.FiniteSpaceError, match="501 elements"):
        F.to_dot(antichain)
