"""Spans and counters around the calls into each fintop module.

The wrappers are installed from here, at the names the callers look up at
call time: a module attribute for calls written ``M.ball_query(...)``, the
importing module's global for ``from .simplicial import vietoris_rips``, the
class attribute for methods, and the ``GENERATORS`` table for the named
generators.  Nothing under ``src/`` is changed.

Each wrapped call records one span ``[name, start, end, parent]`` in memory.
An observer may derive counts from the call's arguments and result; the time
it takes is recorded as a ``trace.observe`` span under the same parent, so no
layer's self time includes it.  Self time is a span's duration minus the
durations of its direct children (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

import fintop.cli as C
import fintop.finite_space as F
import fintop.homology as H
import fintop.limit as Lim
import fintop.linalg as L
import fintop.metric as M
import fintop.simplicial as S
import fintop.tower as T

import workloads

OBSERVE = "trace.observe"

#: per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "metric.sample_s": "s",
    "metric.farthest_point_net_s": "s",
    "metric.coverage_radius_s": "s",
    "metric.pairwise_s": "s",
    "metric.pairwise_bytes": "bytes",
    "metric.ball_query_s": "s",
    "metric.ball_query_calls": "count",
    "metric.points": "count",
    "simplicial.rips_graph_s": "s",
    "simplicial.rips_graph_calls": "count",
    "simplicial.edges": "count",
    "simplicial.clique_expansion_s": "s",
    "simplicial.simplices": "count",
    "simplicial.collapse_s": "s",
    "simplicial.collapse_kept_ratio": "ratio",
    "simplicial.collapse_input_simplices": "count",
    "simplicial.boundary_matrix_s": "s",
    "simplicial.boundary_sparse_s": "s",
    "finite_space.poset_s": "s",
    "finite_space.order_complex_s": "s",
    "finite_space.order_complex_simplices": "count",
    "linalg.rank_q_s": "s",
    "linalg.rank_q_calls": "count",
    "linalg.rank_q_columns": "count",
    "linalg.rank_q_nnz": "count",
    "linalg.induced_map_rank_s": "s",
    "linalg.to_sparse_columns_s": "s",
    "linalg.smith_normal_form_s": "s",
    "linalg.smith_entries": "count",
    "homology.betti_numbers_s": "s",
    "homology.betti_numbers_total_s": "s",
    "homology.chain_map_s": "s",
    "homology.induced_rank_s": "s",
    "homology.component_count_s": "s",
    "tower.build_term_s": "s",
    "tower.bonding_element_map_s": "s",
    "tower.bonding_element_map_calls": "count",
    "tower.bond_calls": "count",
    "tower.verify_bondings_total_s": "s",
    "tower.square_certificate_s": "s",
    "tower.capped_images": "count",
    "tower.empty_images": "count",
    "tower.dump_s": "s",
    "limit.canonical_thread_s": "s",
    "limit.nearest_point_set_s": "s",
    "limit.verify_thread_s": "s",
    "limit.threads": "count",
    "cli.induced_bonding_rank_s": "s",
    "cli.output_bytes": "bytes",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}

# span name -> self-time metric, where it is not "<span>_s": the self time
# of vietoris_rips is its clique expansion, the rips_graph child excluded
SELF_TIME_METRIC = {"simplicial.vietoris_rips": "simplicial.clique_expansion_s"}
# span name -> call-count metric, where it is not "<span>_calls"
CALLS_METRIC = {"limit.canonical_thread": "limit.threads"}


class Tracer:
    """In-memory spans and counters of one traced workload run."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        # tower -> (n, m) of the bondings whose images were counted
        self.bondings = weakref.WeakKeyDictionary()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """fn recording a span per call; observe(tracer, args, kwargs, result)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                t0 = time.perf_counter()
                observe(tracer, args, kwargs, result)
                tracer.spans.append([OBSERVE, t0, time.perf_counter(), parent])
            return result

        return traced

    def counter(self, name: str, fn):
        """fn counting its calls, without a span (for very hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: summed self time and summed inclusive time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
        return own, total

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        own, total = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {k: 0.0 for k in PER_LAYER if k != "trace.overhead_s"}
        for name in own:
            for key, value in ((SELF_TIME_METRIC.get(name, name + "_s"),
                                own[name]),
                               (CALLS_METRIC.get(name, name + "_calls"),
                                calls[name]),
                               (name + "_total_s", total[name])):
                if key in out:
                    out[key] = value
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        before = self.counts["simplicial.collapse_input_simplices"]
        after = self.counts["simplicial.collapse_output_simplices"]
        out["simplicial.collapse_kept_ratio"] = after / before if before else 0.0
        return out

    def dump_spans(self) -> list[list]:
        return [[n, round(s, 7), round(e, 7), p] for n, s, e, p in self.spans]


# -- observers: counts derived from arguments and results ---------------------

def _points(tr, args, kwargs, sample):
    tr.counts["metric.points"] += len(sample)


def _pairwise_bytes(tr, args, kwargs, result):
    n = len(args[1])
    tr.counts["metric.pairwise_bytes"] += n * n * 8


def _edges(tr, args, kwargs, adj):
    tr.counts["simplicial.edges"] += sum(len(a) for a in adj) // 2


def _simplices(tr, args, kwargs, cx):
    tr.counts["simplicial.simplices"] += len(cx)


def _collapse(tr, args, kwargs, cx):
    tr.counts["simplicial.collapse_input_simplices"] += len(args[0])
    tr.counts["simplicial.collapse_output_simplices"] += len(cx)


def _order_complex(tr, args, kwargs, cx):
    tr.counts["finite_space.order_complex_simplices"] += len(cx)


def _rank_q(tr, args, kwargs, rank):
    m = args[0]
    if isinstance(m, list):
        tr.counts["linalg.rank_q_columns"] += len(m)
        tr.counts["linalg.rank_q_nnz"] += sum(len(c) for c in m)
    else:
        a = np.asarray(m)
        tr.counts["linalg.rank_q_columns"] += a.shape[1] if a.ndim == 2 else 0
        tr.counts["linalg.rank_q_nnz"] += int(np.count_nonzero(a))


def _smith(tr, args, kwargs, result):
    a = np.atleast_2d(np.asarray(args[0]))
    tr.counts["linalg.smith_entries"] += a.shape[0] * a.shape[1]


def _bonding(tr, args, kwargs, result):
    # verify_bondings and dump_tower compute the same bondings; count the
    # images of each distinct bonding once
    tower, n, m = args[:3]
    seen = tr.bondings.setdefault(tower, set())
    if (n, m) not in seen:
        seen.add((n, m))
        tr.counts["tower.capped_images"] += result[1].capped_images
        tr.counts["tower.empty_images"] += result[1].empty_images


def _output_bytes(tr, args, kwargs, nbytes):
    tr.counts["cli.output_bytes"] += nbytes


def install(tracer: Tracer) -> None:
    """Replace the looked-up names with traced wrappers (for this process)."""
    w = tracer.wrap
    for key, fn in T.GENERATORS.items():
        T.GENERATORS[key] = w("metric.sample", fn, _points)
    M.two_squares_sample = w("metric.sample", M.two_squares_sample, _points)
    M.farthest_point_net = w("metric.farthest_point_net", M.farthest_point_net)
    M.coverage_radius = w("metric.coverage_radius", M.coverage_radius)
    M.points_distance_matrix = w("metric.pairwise", M.points_distance_matrix,
                                 _pairwise_bytes)
    M.ball_query = w("metric.ball_query", M.ball_query)

    S.rips_graph = w("simplicial.rips_graph", S.rips_graph, _edges)
    T.vietoris_rips = w("simplicial.vietoris_rips", T.vietoris_rips, _simplices)
    H.elementary_collapse = w("simplicial.collapse", H.elementary_collapse,
                              _collapse)
    cx_cls = S.SimplicialComplex
    cx_cls.boundary_matrix = w("simplicial.boundary_matrix",
                               cx_cls.boundary_matrix)
    cx_cls.boundary_sparse = w("simplicial.boundary_sparse",
                               cx_cls.boundary_sparse)

    F.FiniteSpace.__init__ = w("finite_space.poset", F.FiniteSpace.__init__)
    F.FiniteSpace.order_complex = w("finite_space.order_complex",
                                    F.FiniteSpace.order_complex, _order_complex)

    L.rank_q = w("linalg.rank_q", L.rank_q, _rank_q)
    L.induced_map_rank = w("linalg.induced_map_rank", L.induced_map_rank)
    L.to_sparse_columns = w("linalg.to_sparse_columns", L.to_sparse_columns)
    L.smith_normal_form = w("linalg.smith_normal_form", L.smith_normal_form,
                            _smith)

    H.betti_numbers = w("homology.betti_numbers", H.betti_numbers)
    H.chain_map = w("homology.chain_map", H.chain_map)
    H.induced_rank = w("homology.induced_rank", H.induced_rank)
    H.component_count = w("homology.component_count", H.component_count)

    T.build_term = w("tower.build_term", T.build_term)
    T.Tower.bonding_element_map = w("tower.bonding_element_map",
                                    T.Tower.bonding_element_map, _bonding)
    T.Tower.bond = tracer.counter("tower.bond_calls", T.Tower.bond)
    T.Tower.verify_bondings = w("tower.verify_bondings",
                                T.Tower.verify_bondings)
    T.Tower.projection_square_certificate = w(
        "tower.square_certificate", T.Tower.projection_square_certificate)
    T.dump_tower = w("tower.dump", T.dump_tower)

    Lim.canonical_thread = w("limit.canonical_thread", Lim.canonical_thread)
    Lim.nearest_point_set = w("limit.nearest_point_set", Lim.nearest_point_set)
    Lim.verify_thread = w("limit.verify_thread", Lim.verify_thread)

    C.induced_bonding_rank = w("cli.induced_bonding_rank",
                               C.induced_bonding_rank)
    workloads.write_output = w("cli.write", workloads.write_output,
                               _output_bytes)
