"""Finite T0 topological spaces as partial orders.

A finite T0 space is stored through its specialization order: the minimal
open set of a point x is the up-set {y : x <= y} of the stored order, and a
map between finite spaces is continuous exactly when it preserves the
order.  The order complex (chains) and the face poset of a simplicial
complex translate between the finite and simplicial worlds.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Mapping, Optional

from .simplicial import SimplicialComplex, clique_complex


class FiniteSpaceError(ValueError):
    pass


class FiniteSpace:
    """A poset on hashable elements; reflexive order stored as up-sets."""

    def __init__(self, elements: Iterable[Hashable],
                 leq_pairs: Iterable[tuple] = ()):
        self.elements = list(elements)
        up = {x: {x} for x in self.elements}
        if len(up) != len(self.elements):
            raise FiniteSpaceError("duplicate elements")
        for a, b in leq_pairs:
            if a not in up or b not in up:
                raise FiniteSpaceError("relation mentions unknown element")
            up[a].add(b)
        # transitive closure
        changed = True
        while changed:
            changed = False
            for x in self.elements:
                grown = set(up[x])
                for y in up[x]:
                    grown |= up[y]
                if len(grown) != len(up[x]):
                    up[x] = grown
                    changed = True
        for x in self.elements:
            for y in up[x]:
                if x != y and x in up[y]:
                    raise FiniteSpaceError("order is not antisymmetric (space is not T0)")
        self._up = {x: frozenset(s) for x, s in up.items()}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._up

    def leq(self, a, b) -> bool:
        return b in self._up[a]

    def min_open(self, x) -> frozenset:
        """Minimal open set of x: the up-set of the stored order."""
        return self._up[x]

    def closure(self, x) -> frozenset:
        return frozenset(y for y in self.elements if x in self._up[y])

    def opposite(self) -> "FiniteSpace":
        """The same elements with the order reversed."""
        return FiniteSpace(self.elements, ((b, a) for a, ups in self._up.items()
                                           for b in ups))

    def covers(self) -> list[tuple]:
        """Covering pairs (a, b) with a < b and nothing strictly between,
        in element order of a, then of b."""
        pos = {x: i for i, x in enumerate(self.elements)}
        out = []
        for a in self.elements:
            strict = self._up[a] - {a}
            for b in sorted(strict, key=pos.__getitem__):
                if not any(c != b and b in self._up[c] for c in strict):
                    out.append((a, b))
        return out

    def is_order_preserving(self, f: Mapping, target: "FiniteSpace") -> bool:
        """Continuity test: x <= y must give f(x) <= f(y)."""
        for x in self.elements:
            fx = f[x]
            if fx not in target:
                return False
            for y in self._up[x] - {x}:
                if not target.leq(fx, f[y]):
                    return False
        return True

    def pointwise_comparable(self, f: Mapping, g: Mapping,
                             target: "FiniteSpace") -> bool:
        """True when f(x) and g(x) are comparable in the target for all x."""
        return all(target.leq(f[x], g[x]) or target.leq(g[x], f[x])
                   for x in self.elements)

    def order_complex(self, max_chain: Optional[int] = None) -> SimplicialComplex:
        """Simplicial complex of nonempty chains, at most max_chain long.

        Vertices are integer positions into self.elements, so that element
        identity survives the canonical sorting of simplex tuples.
        """
        pos = {x: i for i, x in enumerate(self.elements)}
        # chains are the cliques of the comparability graph
        comparable: list[list[int]] = [[] for _ in self.elements]
        for i, x in enumerate(self.elements):
            for j in sorted(pos[y] for y in self._up[x] if y != x):
                comparable[i].append(j)
                comparable[j].append(i)
        cap = max_chain if max_chain is not None else len(self.elements)
        return clique_complex(comparable, cap - 1)


def face_poset(cx: SimplicialComplex) -> FiniteSpace:
    """Finite space of the simplices of cx, as frozenset vertex sets in the
    order of cx.all_simplices(), ordered by inclusion.

    Its order complex is the barycentric subdivision of cx.
    """
    elems = {s: frozenset(s) for s in cx.all_simplices()}
    # every proper face, so the relation is already transitive
    pairs = ((elems[face], c) for s, c in elems.items()
             for k in range(1, len(s)) for face in combinations(s, k))
    return FiniteSpace(elems.values(), leq_pairs=pairs)


# ---------------------------------------------------------------------------
# Hasse diagrams
# ---------------------------------------------------------------------------

def _label(x) -> str:
    if isinstance(x, frozenset):
        return "{" + ",".join(str(v) for v in sorted(x)) + "}"
    return str(x)


DOT_CAP = 500


def check_dot_cap(count: int) -> None:
    """Refuse to draw a space of count elements above DOT_CAP."""
    if count > DOT_CAP:
        raise FiniteSpaceError(
            f"space has {count} elements, above the DOT cap of {DOT_CAP}")


def to_dot(space: FiniteSpace, name: str = "finite_space") -> str:
    """Hasse diagram in DOT format, lower elements drawn below."""
    check_dot_cap(len(space))
    labels = {x: _label(x) for x in space.elements}
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for x in space.elements:
        lines.append(f'  "{labels[x]}";')
    for a, b in space.covers():
        lines.append(f'  "{labels[a]}" -> "{labels[b]}";')
    lines.append("}")
    return "\n".join(lines)
