import dataclasses
import functools
import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fintop import cli as C
from fintop import finite_space as F
from fintop import homology as H
from fintop import limit as L
from fintop import metric as M
from fintop import simplicial as S
from fintop import tower as T

import oracles


def circle_tower(depth=3, **kw):
    kw.setdefault("max_dim", 3)
    kw.setdefault("k_max", 1)
    return T.build_tower("circle", depth, **kw)


def test_schedule_strict_circle():
    samples = [M.circle_sample(n) for n in range(1, 5)]
    assert T.validate_schedule(samples, T.STRICT) == []


def test_schedule_strict_violation():
    ctx = M.euclidean(1)
    a = M.MetricSample(ctx, [[0.0], [1.0]], epsilon=1.0, gamma=0.5)
    b = M.MetricSample(ctx, [[0.0], [0.5], [1.0]], epsilon=0.3)
    # strict bound is (1 - 0.5)/2 = 0.25 < 0.3
    probs = T.validate_schedule([a, b], T.STRICT)
    assert len(probs) == 1 and "strict" in probs[0]
    # relaxed bound is 0.5: fine
    assert T.validate_schedule([a, b], T.RELAXED) == []


def test_schedule_checks_gamma_on_every_level():
    # the last level has no successor, and its gamma is checked all the same
    ctx = M.euclidean(1)
    a = M.MetricSample(ctx, [[0.0], [1.0]], epsilon=1.0, gamma=0.25)
    b = M.MetricSample(ctx, [[0.0], [1.0]], epsilon=0.25, gamma=0.5)
    last = "level 2: gamma=0.5 >= eps=0.25: not an epsilon-approximation"
    for mode in (T.STRICT, T.RELAXED):
        assert T.validate_schedule([a, b], mode) == [last]
        with pytest.raises(T.TowerError, match=f"^{last}$"):
            T.Tower([a, b], mode=mode)
    # a one-level tower has only a last level
    assert T.validate_schedule([b], T.RELAXED) == [last.replace("2", "1", 1)]
    with pytest.raises(T.TowerError, match="^level 1: gamma=0.5 >= eps=0.25"):
        T.Tower([b], mode=T.RELAXED)
    assert T.validate_schedule([a], T.STRICT) == []


def test_schedule_cantor_needs_relaxed_deep():
    samples = [M.cantor_sample(n) for n in range(1, 9)]
    assert T.validate_schedule(samples, T.RELAXED) == []
    probs = T.validate_schedule(samples, T.STRICT)
    # gamma_7 = 3^-8 exceeds eps_7/2 = 2^-13: the halving-with-slack bound
    # fails first at the step from level 7 to level 8
    assert probs == [f"level 8: eps={4.0 ** -7:.6g} must be below "
                     f"{(4.0 ** -6 - 3.0 ** -8) / 2:.6g} (strict schedule)"]


def test_term_sizes_circle():
    tw = circle_tower(3)
    assert [len(t.complex) for t in tw.terms] == [1, 15, 256]


def test_term_element_diameter_bound():
    tw = circle_tower(3)
    t = tw.term(3)
    report = oracles.element_report(t, t.complex.all_simplices(), 0.0)[1]
    assert report.worst_diameter < t.threshold
    # a non-element: 5 consecutive points span 4 gaps = the threshold
    too_wide = frozenset(range(5))
    assert not t.is_element(too_wide)


def test_explicit_elements_pass_their_own_membership_test():
    # symmetric within allclose only: the Rips graph reads d(0, 1) = 1 from
    # the upper triangle, the diameters would read 1 + 1e-9 from the lower
    m = [[0, 1, 2], [1 + 1e-9, 0, 1], [2, 1, 0]]
    ctx = M.explicit(m)
    assert ctx.matrix[1, 0] == ctx.matrix[0, 1] == 1
    sample = M.MetricSample(ctx, [0, 1, 2], epsilon=(1 + 1.5e-9) / 4)
    term = T.build_term(sample, 2)
    assert frozenset({0, 1}) in term.complex
    assert term.is_element(frozenset({0, 1}))
    assert oracles.element_report(term, term.complex.all_simplices(),
                                  M.DEFAULT_TOL)[1].worst_diameter == 1


def test_term_space_reverse_inclusion():
    tw = circle_tower(2)
    sp = tw.term(2).space()
    single = frozenset([0])
    pair = frozenset([0, 1])
    assert sp.leq(pair, single)          # bigger sets are below
    assert sp.min_open(single) == {single}


@pytest.mark.parametrize("cls", [T.Tower, T.NearestPointTower])
@pytest.mark.parametrize("space, depth", [("circle", 3), ("cantor", 4),
                                          ("two_squares", 3)])
def test_term_space_matches_the_order_predicate(cls, space, depth):
    # the oracle decides C <= D for every pair of elements: inclusion in
    # the nearest-point variant, reverse inclusion in the other
    samples, mode = T.space_samples(space, depth)
    tw = cls(samples, mode=mode)
    for t in tw.terms:
        leq = (lambda c, d: c < d) if cls.threshold_factor == 2 \
            else (lambda c, d: d < c)
        elements = [frozenset(s) for s in t.complex.all_simplices()]
        oracle = F.FiniteSpace(elements, leq_pairs=[
            (c, d) for c in elements for d in elements if leq(c, d)])
        sp = t.space()
        assert sp.elements == oracle.elements == elements
        assert [sp.min_open(x) for x in sp.elements] \
            == [oracle.min_open(x) for x in oracle.elements]


def test_bonding_values_circle_level3_to_2():
    tw = circle_tower(3)
    # angle 2pi/32 sees both 0 and pi/2 within the open eps_2 = pi/2 ball
    assert tw.bond(2, 3, frozenset([1])) == frozenset([0, 1])
    # angle 0 sees only the point 0
    assert tw.bond(2, 3, frozenset([0])) == frozenset([0])


def test_bondings_well_defined_and_monotone():
    tw = circle_tower(4)
    for rep in tw.verify_bondings():
        assert rep.well_defined
        assert rep.worst_diameter < rep.bound
        assert rep.empty_images == 0
    # order preservation: unions over larger sets are larger
    a = frozenset([0, 1])
    b = frozenset([0, 1, 2])
    assert tw.bond(2, 3, a) <= tw.bond(2, 3, b)


def test_bonding_composition_is_exact():
    tw = circle_tower(4)
    for payload in tw.term(4).complex.all_simplices()[:50]:
        via = tw.bond(2, 3, tw.bond(3, 4, payload))
        assert via == tw.bond(2, 4, payload)


def test_projection_square_certificates():
    tw = circle_tower(4)
    for n in (1, 2):
        ok, worst = tw.projection_square_certificate(n)
        assert ok and worst < tw.term(n).threshold


def test_epsilons_must_decrease():
    ctx = M.euclidean(1)
    a = M.MetricSample(ctx, [[0.0]], epsilon=1.0)
    b = M.MetricSample(ctx, [[0.0], [1.0]], epsilon=1.5)
    with pytest.raises(T.TowerError):
        T.Tower([a, b], mode=T.RELAXED)


def test_schedule_enforcement_toggle():
    ctx = M.euclidean(1)
    a = M.MetricSample(ctx, [[0.0]], epsilon=1.0)
    b = M.MetricSample(ctx, [[0.0], [1.0]], epsilon=0.9)
    with pytest.raises(T.TowerError):
        T.Tower([a, b], mode=T.RELAXED)
    tw = T.Tower([a, b], mode=T.RELAXED, enforce_schedule=False)
    assert tw.schedule_problems


def test_max_dim_must_exceed_k_max():
    # without 2-simplices every 1-cycle of the Rips complex survives
    with pytest.raises(T.TowerError, match="k_max"):
        T.build_tower("circle", 3, max_dim=1, k_max=1)
    with pytest.raises(T.TowerError, match="k_max"):
        T.build_tower("two_squares", 3, max_dim=2, k_max=2)
    assert T.build_tower("circle", 2, max_dim=2, k_max=1).max_dim == 2


@pytest.mark.parametrize("kw, match", [
    ({"k_max": -1}, "k_max=-1"),
    ({"tol": -1.0}, "tolerance"),
    ({"tol": float("nan")}, "tolerance"),
    ({"tol": float("inf")}, "tolerance"),
])
def test_negative_degree_and_bad_tolerance_rejected(kw, match):
    with pytest.raises(T.TowerError, match=match):
        T.build_tower("circle", 2, **kw)


def test_resource_cap():
    with pytest.raises(T.ResourceCap):
        T.build_tower("circle", 3, max_dim=3, max_elements=100)


def test_only_the_clique_cap_is_a_resource_cap(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a fault, not a cap")

    monkeypatch.setattr(T, "vietoris_rips", broken)
    with pytest.raises(ZeroDivisionError):
        T.build_term(M.circle_sample(2), 2)


def test_nearest_point_tower_interval():
    samples = [M.interval_sample(n) for n in range(1, 4)]
    tw = T.NearestPointTower(samples, mode=T.STRICT, max_dim=3, k_max=1)
    # threshold 2*eps; at level 2 (grid step 1/3, eps 1/3) only singletons
    # and adjacent pairs qualify
    assert tw.threshold_factor == 2
    t2 = tw.term(2)
    report = oracles.element_report(t2, t2.complex.all_simplices(), 0.0)[1]
    assert report.worst_diameter < 2 / 3
    # nearest-point bonding of an off-grid-ish deeper point set
    img = tw.bond(1, 2, frozenset([2]))
    assert img == frozenset([0])         # everything maps to the single point
    # level 3 grid point 1/27*k nearest to level-2 grid
    img23 = tw.bond(2, 3, frozenset([13]))   # 13/27 is closest to 1/3 and 2/3?
    pts2 = tw.term(2).sample.points.ravel()
    d = np.abs(pts2 - 13 / 27)
    assert img23 == frozenset(np.nonzero(np.isclose(d, d.min()))[0].tolist())


def test_nearest_point_set_ties():
    s = M.interval_sample(2)     # grid 0, 1/3, 2/3, 1
    assert T.nearest_point_set(s, np.array([0.5])) == frozenset([1, 2])
    assert T.nearest_point_set(s, np.array([0.1])) == frozenset([0])


def test_variant_comparison_circle():
    samples = [M.circle_sample(n) for n in range(1, 4)]
    rev = T.Tower(samples, mode=T.STRICT, max_dim=3, k_max=1)
    near = T.NearestPointTower([M.circle_sample(n) for n in range(1, 4)],
                               mode=T.STRICT, max_dim=3, k_max=1)
    r1 = T.variant_comparison(rev, near, 1)
    r2 = T.variant_comparison(rev, near, 2)
    for r in (r1, r2):
        assert r.nearest_in_ball
        assert r.gamma_in_nearest
        assert r.gamma_in_ball
    # the reversed containment fails at level 2: the point at angle 2pi/32
    # reaches both 0 and pi/2 by open eps_2-balls but only 0 by gamma-balls
    assert r2.literal_ball_in_gamma is False


def test_two_tower_comparison_circle():
    coarse = circle_tower(2)
    fine = circle_tower(4)
    reps = T.two_tower_comparison(coarse, fine, depth=2)
    assert [r.matched_level for r in reps] == [3, 4]
    assert all(r.well_defined and r.square_certified for r in reps)


def test_match_level_failure():
    coarse = circle_tower(3)
    fine = circle_tower(3)
    with pytest.raises(T.TowerError):
        T.match_level(coarse, fine, 3)   # needs eps < pi/256, not present


def test_config_roundtrip(tmp_path):
    samples = [M.circle_sample(n) for n in (1, 2, 3)]
    cfg = {
        "mode": "strict",
        "max_dim": 3,
        "k_max": 1,
        "tolerance": 1e-9,
        "context": {"kind": "circle_geodesic"},
        "levels": [{"points": s.points.tolist(), "epsilon": s.epsilon,
                    "gamma": s.gamma}
                   for s in samples],
    }
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(cfg))
    tw = T.tower_from_config(T.load_config(p))
    assert len(tw) == 3 and len(tw.term(3).complex) == 256
    assert [t.complex.f_vector() for t in tw.terms] == \
        [t.complex.f_vector() for t in circle_tower(3).terms]


def test_config_points_inline():
    cfg = {
        "mode": "relaxed",
        "levels": [
            {"points": [[0.0]], "epsilon": 2.0},
            {"points": [[0.0], [1.0]], "epsilon": 0.9},
        ],
    }
    tw = T.tower_from_config(cfg)
    assert len(tw.term(2).complex) == 3   # two singletons and the pair


def test_dump_tower_self_contained():
    tw = circle_tower(3)
    data = T.dump_tower(tw)
    assert data["mode"] == "strict"
    assert len(data["levels"]) == 3
    lvl3 = data["levels"][2]
    assert len(lvl3["elements"]) == 256
    assert lvl3["bonding_well_defined"] is True
    assert len(lvl3["bonding_to_previous"]) == 256
    json.dumps(data)   # fully serializable


def test_dump_tower_writes_one_row_per_point():
    # circle angles are one coordinate per point, not one row of n angles
    tw = circle_tower(3)
    for t, lvl in zip(tw.terms, T.dump_tower(tw)["levels"]):
        assert t.sample.points.shape == (len(t.sample), 1)
        assert lvl["points"] == t.sample.points.tolist()
    tw = T.build_tower("two_squares", 2)
    for t, lvl in zip(tw.terms, T.dump_tower(tw)["levels"]):
        assert lvl["points"] == t.sample.points.tolist()


def test_cantor_tower_components_match_oracle():
    from fintop import homology as H
    tw = T.build_tower("cantor", 6, max_dim=3, k_max=1)
    got = [H.component_count(t.sample.pairwise(), 4 * t.sample.epsilon)
           for t in tw.terms]
    assert got == [1, 1, 2, 4, 8, 32]


def test_bonding_element_map_is_kept_and_returned_fresh():
    tw = circle_tower(3)
    first, report = tw.bonding_element_map(2, 3)
    again, report_again = tw.bonding_element_map(2, 3)
    assert again == first and again is not first
    assert report_again == report
    first[0] = -1
    first.append(99)
    assert tw.bonding_element_map(2, 3)[0] == again
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.well_defined = False


def count_bonding_work(monkeypatch, *towers):
    """Record ("report" | "places", n, m) for each report and each
    assignment that tower._map_report and tower._map_places compute, with
    n and m the levels of the target and the source among the towers."""
    level = {id(t.complex): n for tw in towers
             for n, t in enumerate(tw.terms, start=1)}
    calls = []

    def counted(kind, real):
        def wrapper(dst, table, src, *rest):
            calls.append((kind, level[id(getattr(dst, "complex", dst))],
                          level[id(src)]))
            return real(dst, table, src, *rest)
        return wrapper

    monkeypatch.setattr(T, "_map_report", counted("report", T._map_report))
    monkeypatch.setattr(T, "_map_places", counted("places", T._map_places))
    return calls


def test_dump_after_verify_computes_each_bonding_once(monkeypatch):
    tw = circle_tower(4)
    calls = count_bonding_work(monkeypatch, tw)
    reports = tw.verify_bondings()
    data = T.dump_tower(tw)
    # one report per consecutive pair, all in the first pass; the dump
    # reads them and computes only the places
    assert calls == [("report", 1, 2), ("report", 2, 3), ("report", 3, 4),
                     ("places", 1, 2), ("places", 2, 3), ("places", 3, 4)]
    assert [lvl["bonding_well_defined"] for lvl in data["levels"][1:]] == \
        [r.well_defined for r in reports]


def test_report_readers_compute_no_places(monkeypatch):
    # the places are computed only when bonding_element_map reads them,
    # once per pair; reports read the face tables of their higher
    # simplices, and induced ranks call positions for _check_simplicial
    tw = T.build_tower("two_squares", 3, k_max=2)
    coarse, fine = circle_tower(2), circle_tower(4)
    calls = count_bonding_work(monkeypatch, tw, coarse, fine)
    tw.verify_bondings()
    for n in range(1, len(tw) - 1):
        tw.projection_square_certificate(n)
    for n in range(1, len(tw)):
        for k in range(tw.k_max + 1):
            C.induced_bonding_rank(tw, n, n + 1, k)
    T.two_tower_comparison(coarse, fine, 1)
    assert calls and all(kind == "report" for kind, _, _ in calls)
    del calls[:]
    for _ in range(2):
        for n in range(1, len(tw)):
            tw.bonding_element_map(n, n + 1)
    assert calls == [("places", 1, 2), ("places", 2, 3)]


def _bonding_answers(space: str, depth: int) -> tuple:
    """Every bonding report and element map between two levels, and every
    projection square, of a freshly built tower."""
    tw = T.build_tower(space, depth, k_max=2)
    pairs = [(n, m) for m in range(1, depth + 1) for n in range(1, m + 1)]
    return ([tw.bonding_report(n, m) for n, m in pairs],
            [tw.bonding_element_map(n, m) for n, m in pairs],
            [tw.projection_square_certificate(n) for n in range(1, depth - 1)])


@pytest.mark.parametrize("space, depth", [("circle", 4), ("cantor", 5),
                                          ("two_squares", 3)])
def test_bonding_answers_do_not_depend_on_the_block_size(space, depth,
                                                         monkeypatch):
    # a budget of one entry runs the threshold graph, the ball images, the
    # image gathers and the place lookups one item per block
    default = _bonding_answers(space, depth)
    monkeypatch.setattr(M, "BLOCK_ENTRIES", 1)
    assert _bonding_answers(space, depth) == default


@pytest.mark.parametrize("space, depth", [("circle", 4), ("two_squares", 3)])
def test_reports_are_plain_python_and_dump_as_json(space, depth):
    tw = T.build_tower(space, depth, max_dim=3, k_max=1)
    term = tw.term(depth)
    for payload in (frozenset(), frozenset([0]),
                    frozenset(term.complex.all_simplices()[-1])):
        assert type(term.is_element(payload)) is bool
    for rep in tw.verify_bondings():
        assert type(rep.worst_diameter) is float
        json.dumps(dataclasses.asdict(rep))
    for n in range(1, depth - 1):
        ok, worst = tw.projection_square_certificate(n)
        assert type(ok) is bool and type(worst) is float
    probes = [0.7, 2.0] if space == "circle" else M.two_squares_points(4, 103)
    for x in probes:
        rep = L.verify_thread(tw, L.canonical_thread(tw, x))
        assert all(type(v) is bool for v in rep.element_levels)
        json.dumps(dataclasses.asdict(rep))


# -- level checks, witnesses and oracles of the bonding layer ------------------

def wide_tower():
    """Three levels on the line, schedule unchecked: the pair {0.5, 2.5} of
    levels 2 and 3 is an element whose image is all of level 1 (diameter 3,
    threshold 2.4)."""
    ctx = M.euclidean(1)
    return T.Tower([M.MetricSample(ctx, [[0.0], [1.0], [2.0], [3.0]], epsilon=0.6),
                    M.MetricSample(ctx, [[0.5], [2.5]], epsilon=0.55),
                    M.MetricSample(ctx, [[0.5], [2.5]], epsilon=0.52)],
                   mode=T.RELAXED, enforce_schedule=False)


def crowded_tower():
    """Two levels on the line with max_dim 1, so that level 1 stores at
    most two points per element.  The images of the edges of level 2 pass
    the element test of level 1, and {0, 1, 2} has too many points to be
    stored, while {0, 1} is stored though its two vertex images together
    hold four indices."""
    ctx = M.euclidean(1)
    return T.Tower([M.MetricSample(ctx, [[0.0], [1.0], [2.0], [3.0]], epsilon=1.0),
                    M.MetricSample(ctx, [[0.5], [0.6], [1.5], [2.0], [2.5]],
                                   epsilon=0.45)],
                   mode=T.RELAXED, max_dim=1, k_max=0)


def narrow_edge_tower():
    """A triangle of level 2 whose first edge maps to the point 0 of level
    1 while its other edges map to {0, 3.5}, which fails the element test
    of level 1; schedule unchecked."""
    ctx = M.euclidean(1)
    return T.Tower([M.MetricSample(ctx, [[0.0], [2.0], [3.5]], epsilon=0.8),
                    M.MetricSample(ctx, [[0.5], [0.6], [3.0]], epsilon=0.75)],
                   mode=T.RELAXED, max_dim=2, k_max=1, enforce_schedule=False)


def loose_nearest_tower():
    """Nearest-point bondings at tolerance 1, under which no point passes
    the element test of level 1, although every point is stored."""
    ctx = M.euclidean(1)
    return T.NearestPointTower(
        [M.MetricSample(ctx, [[0.0], [3.0], [6.0]], epsilon=1.0),
         M.MetricSample(ctx, [[0.2], [3.1]], epsilon=0.4)],
        mode=T.RELAXED, max_dim=1, k_max=0, tol=1.0, enforce_schedule=False)


def empty_image_tower():
    """Relaxed schedule: the point 1.5 of levels 2 and 3 has no point of
    level 1 in its open 1-ball."""
    ctx = M.euclidean(1)
    return T.Tower([M.MetricSample(ctx, [[0.0]], epsilon=1.0),
                    M.MetricSample(ctx, [[0.0], [1.5]], epsilon=0.4),
                    M.MetricSample(ctx, [[0.0], [1.5]], epsilon=0.19)],
                   mode=T.RELAXED)


def pair_diameter(pw, payload):
    pts = sorted(payload)
    return max((pw[a][b] for i, a in enumerate(pts) for b in pts[i + 1:]),
               default=0.0)


def square_oracle(tw, n):
    """The square certificate as the union of the one-step and the two-step
    bondings from level n+2 down to n, with pair-loop diameters."""
    term = tw.term(n)
    pw = term.sample.pairwise()
    worst, ok = 0.0, True
    for c in tw.term(n + 2).complex.all_simplices():
        u = tw.bond(n, n + 2, c) | tw.bond(n, n + 1, tw.bond(n + 1, n + 2, c))
        if not u:
            return False, float("inf")
        d = pair_diameter(pw, u)
        worst = max(worst, d)
        ok &= bool(M.below(d, term.threshold, tw.tol))
    return ok, float(worst)


def stepwise_bond(tw, n, m, payload):
    for level in range(m - 1, n - 1, -1):
        payload = tw.bond(level, level + 1, payload)
    return payload


def test_bad_bonding_levels_raise():
    tw = circle_tower(3)
    for n, m in [(1, 5), (0, 2), (3, 2), (0, 0)]:
        with pytest.raises(T.TowerError, match=re.escape(f"bad bonding levels ({n}, {m})")):
            tw.bonding_element_map(n, m)
    for n in (0, 2, -1):
        with pytest.raises(T.TowerError, match="bad bonding levels"):
            tw.projection_square_certificate(n)
    assert tw.bonding_element_map(3, 3)[0] == list(range(256))


def test_selection_names_a_vertex_with_an_empty_image():
    # 1.5 is farther than eps 1 from the one point of level 1
    line = M.euclidean(1)
    tw = T.Tower([M.MetricSample(line, [[0.0]], 1.0),
                  M.MetricSample(line, [[0.0], [1.5]], 0.4)],
                 mode=T.RELAXED, max_dim=2, k_max=1)
    assert not tw.bonding_element_map(1, 2)[1].well_defined
    with pytest.raises(T.TowerError, match=re.escape(
            "selection from level 2 to level 1: vertex 1 of level 2 has an "
            "empty image")):
        tw.selection(1, 2)
    assert tw.selection(2, 2) == {0: 0, 1: 1}


@pytest.mark.parametrize("variant", [T.Tower, T.NearestPointTower])
@pytest.mark.parametrize("space, depth", [("circle", 4), ("cantor", 5),
                                          ("two_squares", 3)])
def test_square_certificate_matches_the_two_path_union(variant, space, depth):
    samples, mode = T.space_samples(space, depth)
    tw = variant(samples, mode=mode, max_dim=3, k_max=1)
    for n in range(1, depth - 1):
        got = tw.projection_square_certificate(n)
        assert got == square_oracle(tw, n)
        assert [type(v) for v in got] == [bool, float]


def test_empty_image_fails_square_and_names_its_element():
    tw = empty_image_tower()
    assert tw.projection_square_certificate(1) == square_oracle(tw, 1) \
        == (False, math.inf)
    rep = tw.bonding_element_map(1, 2)[1]
    assert (rep.well_defined, rep.empty_images, rep.worst_element) == (False, 1, 1)
    assert rep.worst_diameter == math.inf
    assert tw.bonding_element_map(1, 3)[1].worst_element == 1


def test_wide_image_fails_and_names_its_element():
    tw = wide_tower()
    pair = tw.term(2).complex.all_simplices().index((0, 1))
    rep = tw.bonding_element_map(1, 2)[1]
    assert (rep.well_defined, rep.worst_diameter, rep.capped_images,
            rep.worst_element) == (False, 3.0, 1, pair)
    assert tw.projection_square_certificate(1) == square_oracle(tw, 1) == (False, 3.0)
    assert tw.bonding_element_map(1, 3)[1].worst_element == \
        tw.term(3).complex.all_simplices().index((0, 1))
    assert tw.bonding_element_map(2, 3)[1].well_defined


@functools.cache
def squares_tower():
    return T.build_tower("two_squares", 3, k_max=2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composed_bond_equals_stepwise_composition(data):
    tw = squares_tower()
    n = data.draw(st.integers(1, len(tw) - 1))
    m = data.draw(st.integers(n + 1, len(tw)))
    size = len(tw.term(m).sample.points)
    payload = frozenset(data.draw(st.sets(st.integers(0, size - 1), max_size=6)))
    assert tw.bond(n, m, payload) == stepwise_bond(tw, n, m, payload)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                min_size=1, max_size=12, unique=True),
       st.lists(st.sets(st.integers(0, 11), min_size=1, max_size=12),
                min_size=1, max_size=20))
def test_batched_diameters_equal_the_pair_loop(points, payloads):
    sample = M.MetricSample(M.euclidean(2), np.array(points), 1.0)
    pw = sample.pairwise()
    payloads = [frozenset(i % len(sample) for i in p) for p in payloads]
    got = T.image_diameters(sample, payloads)
    assert got.tolist() == [pair_diameter(pw, p) for p in payloads]


def _unit_key_normal(dim):
    """A unit vector orthogonal to the projection direction of the sorted
    keys, (1, sqrt 2, .., sqrt d) / |.|: points on a line along it share
    one key."""
    v = np.zeros(dim)
    v[:2] = math.sqrt(2), -1.0
    return v / math.sqrt(3)


@st.composite
def threshold_samples(draw):
    """A sample, a threshold factor and an element cap that test the key
    window of the threshold graph: Euclidean points of dimension 1 to 4;
    integer lattices at thresholds that their distances tie with; points
    on lines orthogonal to the key direction, which share keys; points
    offset by 1e6; circle angles near 0 and 2 pi; and subsets of an
    explicit matrix of integer distances.  The cap is often below the
    complex's size."""
    kind = draw(st.sampled_from(["euclidean", "lattice", "orthogonal",
                                 "offset", "circle", "explicit"]))
    factor = draw(st.sampled_from([2.0, 4.0]))
    tied = st.sampled_from([0.25, math.sqrt(2) / 4, 0.5, math.sqrt(5) / 4,
                            0.75, 1.0])
    dim = draw(st.integers(1, 4))
    count = st.integers(2, 16)
    if kind == "circle":
        near = st.one_of(st.floats(0, 0.3),
                         st.floats(2 * math.pi - 0.3, 2 * math.pi,
                                   exclude_max=True),
                         st.floats(0, 2 * math.pi, exclude_max=True))
        angles = draw(st.lists(near, min_size=2, max_size=16))
        ctx, points = M.circle_geodesic(), np.unique(np.array(angles) + 0.0)
        eps = draw(st.floats(0.005, 3.5))
    elif kind == "explicit":
        line = draw(st.lists(st.integers(0, 20), min_size=2, max_size=16,
                             unique=True))
        ctx = M.explicit([[abs(a - b) for b in line] for a in line])
        points = draw(st.lists(st.integers(0, len(line) - 1), min_size=1,
                               max_size=len(line), unique=True))
        eps = 4 * draw(tied) / factor
    elif kind == "lattice":
        ctx = M.euclidean(dim)
        points = np.array(draw(st.lists(
            st.tuples(*[st.integers(0, 4)] * dim), min_size=2, max_size=16,
            unique=True)), dtype=float)
        eps = 4 * draw(tied) / factor
    elif kind == "orthogonal":
        dim = max(dim, 2)
        ctx = M.euclidean(dim)
        lines = draw(st.lists(st.floats(-2, 2), min_size=1, max_size=3))
        steps = draw(st.lists(st.tuples(st.integers(0, len(lines) - 1),
                                        st.integers(-8, 8)),
                              min_size=2, max_size=16, unique=True))
        u = np.sqrt(np.arange(1.0, dim + 1))
        u /= np.linalg.norm(u)
        points = np.array([lines[i] * u + 0.25 * k * _unit_key_normal(dim)
                           for i, k in steps])
        eps = draw(tied) / factor
    else:
        ctx = M.euclidean(dim)
        points = np.array(draw(st.lists(
            st.tuples(*[st.floats(-3, 3)] * dim), min_size=2,
            max_size=draw(count))), dtype=float)
        if kind == "offset":
            points = points + 1e6
        eps = draw(st.floats(0.01, 2.0))
    if ctx.kind == "euclidean":
        # rounding, as of the offset, may make two points one
        points = np.unique(points + 0.0, axis=0)
    sample = M.MetricSample(ctx, points, epsilon=eps)
    return sample, factor, draw(st.integers(1, 400))


@settings(max_examples=150, deadline=None)
@given(threshold_samples(), st.integers(1, 2), st.data())
def test_the_threshold_graph_and_reports_equal_the_matrix_ones(case, max_dim,
                                                              data):
    sample, factor, cap = case
    threshold = factor * sample.epsilon
    pw = sample.pairwise()
    graph = S.rips_graph(pw, threshold)
    assert S.rips_graph(sample, threshold) == graph
    with mock.patch.object(M, "BLOCK_ENTRIES", 1):
        assert S.rips_graph(sample, threshold) == graph
    # the same complex, or the same refusal, as from the whole matrix
    try:
        want = S.vietoris_rips(pw, threshold, max_dim, max_simplices=cap)
    except S.SimplicialError as exc:
        with pytest.raises(T.ResourceCap, match=f"^{exc}$"):
            T.build_term(sample, max_dim, factor, max_elements=cap)
        return
    term = T.build_term(sample, max_dim, factor, max_elements=cap)
    assert term.complex.all_simplices() == want.all_simplices()
    # a report of a map into the term, against the diameters of the images
    # read from the matrix, and again one distance per block
    n = len(sample)
    table = [frozenset(img) for img in data.draw(st.lists(
        st.sets(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))]
    report = T._map_report(term, table, term.complex, M.DEFAULT_TOL)
    images = [list(frozenset().union(*(table[v] for v in c)))
              for c in term.complex.all_simplices()]
    widths = [pw[np.ix_(i, i)].max() if i else math.inf for i in images]
    passed = M.below(np.array(widths), threshold, M.DEFAULT_TOL)
    assert report.worst_diameter == max(widths)
    assert report.well_defined == bool(passed.all())
    assert [term.is_element(frozenset(i)) for i in images[:24]] == \
        passed[:24].tolist()
    with mock.patch.object(M, "BLOCK_ENTRIES", 1):
        assert repr(T._map_report(term, table, term.complex,
                                  M.DEFAULT_TOL)) == repr(report)


def test_a_dense_sample_stops_at_the_element_cap(monkeypatch):
    # 4096 points within the threshold of each other have 8,386,560 edges;
    # the cap refuses them after the first blocks of candidates
    sample = M.MetricSample(M.euclidean(1), np.arange(4096.0)[:, None] / 4096,
                            epsilon=1.0)
    measured = []
    kernel = M.cross_distances

    def counted(ctx, A, B):
        out = kernel(ctx, A, B)
        measured.append(out.size)
        return out

    monkeypatch.setattr(M, "cross_distances", counted)
    with pytest.raises(T.ResourceCap,
                       match="^Rips complex exceeds cap of 50000 simplices$"):
        T.build_term(sample, 2, max_elements=50_000)
    assert sum(measured) <= 50_000 + M.BLOCK_ENTRIES


@st.composite
def tied_towers(draw):
    """Towers of 2 or 3 levels whose distances tie with eps_n and 4 eps_n:
    lattice points scaled by 2^-i, grid angles on the geodesic circle, or
    integers of the line as an explicit matrix.  max_dim runs from 1 to 3,
    so wide images are often capped, and the schedule is not checked, so
    some images are empty."""
    kind = draw(st.sampled_from(["lattice", "circle", "explicit"]))
    depth, max_dim = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    factors = sorted(draw(st.lists(
        st.sampled_from([0.25, math.sqrt(2) / 4, 0.5, 0.75, 1.0]),
        min_size=depth, max_size=depth)), reverse=True)

    def subset(size):
        return draw(st.lists(st.integers(0, size - 1), min_size=1,
                             max_size=14, unique=True))

    samples = []
    if kind == "explicit":
        line = draw(st.lists(st.integers(0, 16), min_size=2, max_size=12,
                             unique=True))
        ctx = M.explicit([[abs(a - b) for b in line] for a in line])
    elif kind == "circle":
        ctx = M.circle_geodesic()
    else:
        dim = draw(st.integers(1, 3))
        ctx = M.euclidean(dim)
    for i, c in enumerate(factors):
        if kind == "explicit":
            samples.append(M.MetricSample(ctx, subset(len(line)),
                                          epsilon=c * 2.0 ** (1 - i)))
        elif kind == "circle":
            step = 2 * math.pi / (4 << i)
            samples.append(M.MetricSample(
                ctx, step * np.array(subset(4 << i), dtype=float),
                epsilon=c * step))
        else:
            grid = draw(st.lists(st.tuples(*[st.integers(0, 2 << i)] * dim),
                                 min_size=1, max_size=14, unique=True))
            samples.append(M.MetricSample(ctx, np.array(grid) * 2.0 ** -i,
                                          epsilon=c * 2.0 ** -i))
    variant = draw(st.sampled_from([T.Tower, T.NearestPointTower]))
    return variant(samples, mode=T.RELAXED, max_dim=max_dim,
                   k_max=max_dim - 1, enforce_schedule=False)


@settings(max_examples=80, deadline=None)
@given(tied_towers())
@example(empty_image_tower())
@example(wide_tower())
@example(crowded_tower())
@example(narrow_edge_tower())
@example(loose_nearest_tower())
@example(circle_tower(3, max_dim=1, k_max=0))
@example(squares_tower())
def test_bonding_tables_equal_the_union_oracle(tw):
    # every field of every report, and every place, of the vertex and edge
    # tables against one union and one lookup per element
    for m in range(1, len(tw) + 1):
        for n in range(1, m + 1):
            places, report = tw.bonding_element_map(n, m)
            want_places, want = oracles.map_report(
                tw.term(n), tw._vertex_images(n, m), tw.term(m).complex,
                tw.tol)
            assert repr(report) == repr(want)
            assert [type(v) for v in dataclasses.astuple(report)] == \
                [type(v) for v in dataclasses.astuple(want)]
            assert places == list(want_places)


def image_oracle(low, points, payload, radius, tol, closed=False):
    """A map between levels on one payload: one ball_images call for its
    points, then the union."""
    pts = np.asarray(points)[sorted(payload)]
    return frozenset().union(*M.ball_images(low, pts, radius, tol, closed))


def is_element_oracle(term, payload, tol):
    return bool(payload) and bool(M.below(
        pair_diameter(term.sample.pairwise(), payload), term.threshold, tol))


def two_tower_oracle(coarse, fine, depth):
    """two_tower_comparison element by element, with pair-loop diameters."""
    def comparison(n, l, c):
        low = coarse.term(n).sample
        return image_oracle(low, fine.term(l).sample.points, c, low.epsilon,
                            coarse.tol)
    reports = []
    for n in range(1, depth + 1):
        l = T.match_level(coarse, fine, n)
        dst = coarse.term(n)
        ok = all(is_element_oracle(dst, comparison(n, l, c), coarse.tol)
                 for c in fine.term(l).complex.all_simplices())
        square_ok, worst = True, 0.0
        if n < depth:
            l_next = T.match_level(coarse, fine, n + 1)
            for c in fine.term(l_next).complex.all_simplices():
                u = comparison(n, l, stepwise_bond(fine, l, l_next, c)) | \
                    coarse.bond(n, n + 1, comparison(n + 1, l_next, c))
                if not u:
                    square_ok, worst = False, math.inf
                    break
                d = pair_diameter(dst.sample.pairwise(), u)
                worst = max(worst, d)
                square_ok &= bool(M.below(d, dst.threshold, coarse.tol))
        reports.append(T.TwoTowerReport(
            level=n, matched_level=l, well_defined=ok,
            square_certified=square_ok, worst_square_diameter=float(worst),
            bound=dst.threshold))
    return reports


def rotated_circle(depth, shift):
    samples = []
    for n in range(1, depth + 1):
        base = M.circle_sample(n)
        samples.append(M.MetricSample(base.context, base.points + shift,
                                      base.epsilon, gamma=base.gamma))
    return T.Tower(samples, mode=T.STRICT)


@pytest.mark.parametrize("coarse, fine", [
    (lambda: circle_tower(2), lambda: circle_tower(4)),
    (lambda: circle_tower(2), lambda: rotated_circle(4, 0.05)),
    (lambda: T.build_tower("cantor", 2), lambda: T.build_tower("cantor", 6)),
], ids=["circle", "circle-rotated", "cantor"])
def test_two_tower_comparison_matches_the_element_oracle(coarse, fine):
    coarse, fine = coarse(), fine()
    got = T.two_tower_comparison(coarse, fine, depth=2)
    assert got == two_tower_oracle(coarse, fine, 2)


def test_two_tower_square_unites_both_paths():
    # fine level 2's point 0.01 goes through fine level 1 to coarse {0.0}
    # only, but through coarse level 2 ({0.0, 0.35}) to coarse {0.0, 1.3}
    ctx = M.euclidean(1)

    def tower(levels):
        return T.Tower([M.MetricSample(ctx, [[x] for x in pts], epsilon=eps)
                        for pts, eps in levels], mode=T.RELAXED)
    coarse = tower([([0.0, 1.3], 1.0), ([0.0, 0.35], 0.4)])
    fine = tower([([0.0], 0.05), ([0.01], 0.02)])
    got = T.two_tower_comparison(coarse, fine, depth=2)
    assert got == two_tower_oracle(coarse, fine, 2)
    assert (got[0].matched_level, got[1].matched_level) == (1, 2)
    assert got[0].worst_square_diameter == 1.3


@pytest.mark.parametrize("space, depth", [("circle", 4), ("two_squares", 3)])
def test_variant_comparison_matches_the_element_oracle(space, depth):
    samples, mode = T.space_samples(space, depth)
    reverse = T.Tower(samples, mode=mode)
    nearest = T.NearestPointTower(samples, mode=mode)
    for n in range(1, depth):
        pts = reverse.term(n + 1).sample.points

        def gamma(low, c, tol):
            return image_oracle(low, pts, c, low.gamma, tol, closed=True)
        low_r, low_p = reverse.term(n).sample, nearest.term(n).sample
        per_c = [(nearest.bond(n, n + 1, c), reverse.bond(n, n + 1, c),
                  gamma(low_p, c, nearest.tol))
                 for c in nearest.term(n + 1).complex.all_simplices()]
        per_d = [(reverse.bond(n, n + 1, d), gamma(low_r, d, reverse.tol))
                 for d in reverse.term(n + 1).complex.all_simplices()]
        assert T.variant_comparison(reverse, nearest, n) == \
            T.VariantComparisonReport(
                level=n,
                nearest_in_ball=all(p <= q for p, q, _ in per_c),
                gamma_in_nearest=all(g <= p for p, _, g in per_c),
                gamma_in_ball=all(g <= q for q, g in per_d),
                literal_ball_in_gamma=all(q <= g for q, g in per_d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_element_matches_the_pair_loop(data):
    tw = squares_tower()
    term = tw.term(data.draw(st.integers(1, len(tw))))
    size = len(term.sample.points)
    payload = frozenset(data.draw(st.sets(st.integers(0, size - 1), max_size=5)))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    assert term.is_element(payload, tol) is is_element_oracle(term, payload, tol)


def _lattice(draw, dim, size):
    """Distinct points of the integer lattice {0..4}^dim, as rows."""
    rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), min_size=1,
                         max_size=size, unique=True))
    return [[float(v) for v in row] for row in rows]


@st.composite
def config_levels(draw):
    """A context kind, its dimension, its matrix (explicit only) and 2-3
    levels of inline points on a relaxed schedule, as a config writes them."""
    kind = draw(st.sampled_from(["euclidean", "circle_geodesic", "explicit"]))
    matrix = None
    if kind == "euclidean":
        dim = draw(st.integers(1, 3))
    else:
        dim = 1
        if kind == "explicit":
            base = np.array(_lattice(draw, draw(st.integers(1, 2)), 8))
            matrix = M.points_distance_matrix(M.euclidean(base.shape[1]), base)
    levels = []
    eps = draw(st.sampled_from([0.5, 1.0, 2.0]))
    for _ in range(draw(st.integers(2, 3))):
        if kind == "euclidean":
            pts = _lattice(draw, dim, 6)
        elif kind == "circle_geodesic":
            pts = [[2 * math.pi * k / 16] for k in draw(st.lists(
                st.integers(0, 15), min_size=1, max_size=6, unique=True))]
        else:
            pts = [[k] for k in draw(st.lists(st.integers(0, len(matrix) - 1),
                                              min_size=1, unique=True))]
        # a level of single coordinates may be written flat
        if dim == 1 and draw(st.booleans()):
            pts = [row[0] for row in pts]
        level = {"points": pts, "epsilon": eps}
        if draw(st.booleans()):
            level["gamma"] = eps * draw(st.sampled_from([0.0, 0.25, 0.5]))
        levels.append(level)
        eps /= draw(st.sampled_from([2.5, 3.0, 4.0]))
    return kind, dim, matrix, levels


@settings(max_examples=40, deadline=None)
@given(config_levels())
def test_an_accepted_config_is_the_library_tower(spec):
    kind, dim, matrix, levels = spec
    cfg = {"mode": "relaxed", "max_dim": 2, "k_max": 1,
           "context": {"kind": kind}, "levels": levels}
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "explicit":
            cfg["context"]["matrix_file"] = "m.csv"
            M.save_points_csv(os.path.join(tmp, "m.csv"), matrix)
            ctx = M.explicit(matrix)
        else:
            ctx = M.circle_geodesic() if kind == "circle_geodesic" \
                else M.euclidean(dim)
        from_config = T.tower_from_config(json.loads(json.dumps(cfg)),
                                          base_dir=tmp)
    from_library = T.Tower([M.MetricSample(ctx, lvl["points"], lvl["epsilon"],
                                           lvl.get("gamma"))
                            for lvl in levels],
                           mode=T.RELAXED, max_dim=2, k_max=1)

    def summary(tw):
        assert all(t.sample.points.ndim == 2 for t in tw.terms)
        return ([t.complex.f_vector() for t in tw.terms],
                [tw.bonding_element_map(n, n + 1)[0] for n in range(1, len(tw))],
                [H.betti_numbers(t.complex, 1).betti for t in tw.terms])

    assert summary(from_config) == summary(from_library)
