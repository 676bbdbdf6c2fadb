"""Induced bonding ranks: the Rips-complex selection path against the
order-complex path.

`cli.induced_bonding_rank` computes H_k(q_{n,m}) on the Rips complexes
through the selection vertex map s(v) = min q_{n,m}({v}).  The oracle here
builds the order complexes of the face posets of both levels and maps them
by the bonding element assignment itself.
"""

import hashlib
import itertools

import pytest

from fintop import cli
from fintop import homology as H
from fintop import metric as M
from fintop import tower as T

FIELDS = ("q", "p:2")
TOWERS = [("circle", 3), ("cantor", 5), ("interval", 3), ("two_squares", 3)]


@pytest.fixture(scope="module", params=TOWERS, ids=lambda t: f"{t[0]}{t[1]}")
def tower(request):
    space, depth = request.param
    return T.build_tower(space, depth, k_max=2, seed=7)


def test_selection_ranks_match_order_complex_oracle(tower):
    ocs = {n: tower.term(n).space().order_complex(max_chain=tower.k_max + 2)
           for n in range(1, len(tower) + 1)}
    compared = 0
    for n, m in itertools.combinations(range(1, len(tower) + 1), 2):
        assign, report = tower.bonding_element_map(n, m)
        assert report.well_defined and not report.empty_images
        if report.capped_images:
            continue
        f = dict(enumerate(assign))
        for field, k in itertools.product(FIELDS, range(tower.k_max + 1)):
            want = H.induced_rank(ocs[m], ocs[n], f, k, field)
            got = cli.induced_bonding_rank(tower, n, m, k, field)
            assert got == want, \
                f"{tower.label}: H_{k}(q_{n},{m}) over {field}: {got} != {want}"
            compared += 1
    assert compared


@pytest.mark.parametrize("space, depth", [("circle", 4), ("cantor", 8),
                                          ("two_squares", 5)])
def test_selection_maps_are_simplicial(space, depth):
    # s(C) is a subset of q_{n,m}(C), an element of level n when the
    # bonding is well defined, so s(C) is a face of it: a stored simplex
    tw = T.build_tower(space, depth, k_max=2, seed=7)
    for n, m in itertools.combinations(range(1, depth + 1), 2):
        assert tw.bonding_element_map(n, m)[1].well_defined
        sel = tw.selection(n, m)
        stored = set(map(frozenset, tw.term(n).complex.all_simplices()))
        for c in tw.term(m).complex.all_simplices():
            assert frozenset(sel[v] for v in c) in stored, \
                f"{space}: s_{n},{m}{c} is not a simplex of level {n}"


def test_capped_bonding_gets_a_rank():
    # q_{1,2} of two_squares sends some stored element outside the stored
    # enumeration of level 1, which the order-complex path cannot map
    tw = T.build_tower("two_squares", 3, k_max=2, seed=7)
    assert tw.bonding_element_map(1, 2)[1].capped_images
    ranks = [cli.induced_bonding_rank(tw, 1, 2, k) for k in range(3)]
    assert ranks == [1, 0, 0]


def test_ill_defined_bonding_gives_none():
    # eps_2 > eps_1 / 2 breaks the schedule: the edge {0.9, 3.6} of level 2
    # goes to {0, 4.5}, whose diameter is above level 1's bound 4
    ctx = M.euclidean(1)
    tw = T.Tower([M.MetricSample(ctx, [[0.0], [4.5]], epsilon=1.0),
                  M.MetricSample(ctx, [[0.9], [3.6]], epsilon=0.99)],
                 mode=T.RELAXED, enforce_schedule=False)
    report = tw.bonding_element_map(1, 2)[1]
    assert not report.well_defined and not report.empty_images
    assert cli.induced_bonding_rank(tw, 1, 2, 0) is None


# SHA-256 of what test_bases_and_induced_maps_are_pinned hashes
PINNED_DIGEST = "a568f2cdf9b2dad44c35ae8e94926aa10d4cc7131a60ddfbab416ec510bc989b"


def test_bases_and_induced_maps_are_pinned():
    """Homology bases, induced matrices and induced ranks are byte-identical
    to the pinned ones: on the order complexes (max_chain=3) of circle 3,
    mapped by the bonding assignment, and on the Rips complexes of cantor 4,
    mapped by the selection vertex map."""
    digest = hashlib.sha256()
    for space, depth, max_chain in (("circle", 3, 3), ("cantor", 4, None)):
        tw = T.build_tower(space, depth, k_max=2, seed=7)
        levels = range(1, depth + 1)
        cxs = {n: tw.term(n).space().order_complex(max_chain) if max_chain
               else tw.term(n).complex for n in levels}
        degrees = range(max_chain - 1 if max_chain else tw.k_max + 1)
        for cx in cxs.values():
            for k in degrees:
                digest.update(repr(H.homology_basis_of(cx, k).reps).encode())
        for n, m in itertools.combinations(levels, 2):
            f = dict(enumerate(tw.bonding_element_map(n, m)[0])) if max_chain \
                else tw.selection(n, m)
            for k in degrees:
                digest.update(repr(H.induced_matrix(cxs[m], cxs[n], f, k)).encode())
                digest.update(repr([H.induced_rank(cxs[m], cxs[n], f, k, field)
                                    for field in ("q", "p:2", "p:3")]).encode())
    assert digest.hexdigest() == PINNED_DIGEST
