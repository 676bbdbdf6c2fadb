"""The benchmark workloads: compute and write the answer, then check it.

Each workload calls fintop's public functions in sequence, one caller and no
threads, writes what the matching CLI command would print, and returns
everything needed to check the answer.  ``check`` compares that with the
expected values and with ``reference.json``; it is not timed.

The two_squares workloads use fixed sampler seeds from criterion 1.  Their
cost depends on the sampled points far more than on anything a change to
fintop would do: depth 3 over Z takes 1.5 s to 11.3 s across sampler seeds
1..20, depth 5 takes 5.7 s to 6.9 s (one 2-core Xeon VM).  With fixed
samples, runs with different benchmark seeds do the same work and can be
compared.  The benchmark seed picks the frame probes threaded through the
depth-5 tower; the other two workloads do not use it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import fintop.cli as C
import fintop.homology as H
import fintop.limit as Lim
import fintop.metric as M
import fintop.tower as T

# sampler seeds: criterion 1 checks Table 1 on all three
PANEL = (7, 11, 23)
SQUARES5_SEED = 7
PROBES = 64

CIRCLE_BETTI = [[1, 0], [1, 0], [1, 1], [1, 1]]
# ranks of H_0 and H_1 of q_{n,n+1} for n = 1, 2, 3
CIRCLE_RANKS = [1, 0, 1, 0, 1, 1]
# published Table 1: (beta_0, beta_1, beta_2) of two_squares per level
TABLE1 = [[1, 0, 0], [1, 2, 0], [1, 2, 0], [1, 2, 0], [1, 2, 0]]

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


class Raised:
    """Stands in for the value of an operation that raised."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"raised {self.message}"


def attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or Raised when it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:   # every failure of an operation is counted
        return Raised(exc)


def write_output(path: str, content) -> int:
    """Write one result file, as the CLI does with --out; returns its bytes.

    content is the text itself or an object written as indented JSON.
    """
    if not isinstance(content, str):
        content = json.dumps(content, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(content)
    return len(content.encode())


def probe_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, SQUARES5_SEED]).generate_state(1)[0])


def bonding_digest(assignments: list) -> str:
    """sha256 of the bonding assignments of levels 2.. into their predecessors."""
    return hashlib.sha256(json.dumps(assignments).encode()).hexdigest()


def _value(r, attr=None):
    if isinstance(r, Raised):
        return r
    return getattr(r, attr) if attr else r


def _homology_csv(rows: list, comps: list, k_max: int, extra=()) -> str:
    """The table `fintop homology` prints."""
    levels = len(rows)
    lines = ["degree," + ",".join(f"level_{n}" for n in range(1, levels + 1))]
    for k in range(k_max + 1):
        lines.append(f"H_{k}," + ",".join(
            "error" if isinstance(r, Raised) else str(r[k]) for r in rows))
    lines.append("components," + ",".join(str(c) for c in comps))
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def _betti_rows(tower: T.Tower, field: str) -> list:
    return [attempt(H.betti_numbers, tower.term(n).complex, tower.k_max, field,
                    max_simplices=T.DEFAULT_MAX_ELEMENTS)
            for n in range(1, len(tower) + 1)]


def _components(tower: T.Tower) -> list:
    return [attempt(H.component_count, tower.term(n).sample.pairwise(),
                    tower.term(n).threshold)
            for n in range(1, len(tower) + 1)]


def _f_vectors(tower: T.Tower) -> list:
    return [tower.term(n).complex.f_vector() for n in range(1, len(tower) + 1)]


# -- circle4-induced -----------------------------------------------------------

def circle4_induced(seed: int, workdir: str) -> dict:
    """`fintop homology --space circle --depth 4 --induced`; seed unused."""
    tower = T.build_tower("circle", 4, k_max=1)
    results = _betti_rows(tower, "q")
    comps = _components(tower)
    ranks = [attempt(C.induced_bonding_rank, tower, n, n + 1, k, "q")
             for n in range(1, len(tower)) for k in range(tower.k_max + 1)]
    rows = [_value(r, "betti") for r in results]
    labels = [f"rank H_{k}(q_{n}_{n + 1})"
              for n in range(1, len(tower)) for k in range(tower.k_max + 1)]
    extra = [f"{label},{'capped' if r is None else r}"
             for label, r in zip(labels, ranks)]
    write_output(os.path.join(workdir, "circle4.csv"),
                 _homology_csv(rows, comps, tower.k_max, extra))
    return {"betti": rows, "components": comps, "ranks": ranks,
            "f_vectors": _f_vectors(tower)}


def check_circle4(res: dict, ref: dict) -> list[tuple]:
    checks = [(f"betti level {n}", row, CIRCLE_BETTI[n - 1])
              for n, row in enumerate(res["betti"], start=1)]
    checks += [(f"components level {n}", c, 1)
               for n, c in enumerate(res["components"], start=1)]
    checks += [(f"induced rank {i}", r, CIRCLE_RANKS[i])
               for i, r in enumerate(res["ranks"])]
    checks.append(("f-vectors", res["f_vectors"], ref["circle"]["f_vectors"]))
    return checks


# -- squares5-certify ----------------------------------------------------------

def _thread_checks(tower: T.Tower, x) -> list[bool]:
    th = Lim.canonical_thread(tower, x)
    rep = Lim.verify_thread(tower, th)
    return [rep.compatible, all(rep.element_levels), rep.convergence_ok,
            rep.ball_bound_ok]


def squares5_certify(seed: int, workdir: str) -> dict:
    """`fintop build`, `fintop homology` and `fintop verify --thread` on
    two_squares depth 5."""
    tower = T.build_tower("two_squares", 5, k_max=2, seed=SQUARES5_SEED)
    betti = [_value(r, "betti") for r in _betti_rows(tower, "q")]
    comps = _components(tower)
    bondings = attempt(tower.verify_bondings)
    if isinstance(bondings, Raised):
        bondings = [bondings] * (len(tower) - 1)
    squares = [attempt(tower.projection_square_certificate, n)
               for n in range(1, len(tower) - 1)]
    probes = M.two_squares_points(PROBES, probe_seed(seed))
    threads = [attempt(_thread_checks, tower, x) for x in probes]
    dump = attempt(T.dump_tower, tower)
    if isinstance(dump, Raised):
        assignments = dump
    else:
        assignments = [lvl["bonding_to_previous"] for lvl in dump["levels"][1:]]
        write_output(os.path.join(workdir, "squares5.json"), dump)
    return {"betti": betti, "components": comps, "bondings": bondings,
            "squares": squares, "threads": threads,
            "assignments": assignments, "f_vectors": _f_vectors(tower)}


def check_squares5(res: dict, ref: dict) -> list[tuple]:
    expect = ref["two_squares"][str(SQUARES5_SEED)]
    checks = [(f"betti level {n}", row, TABLE1[n - 1])
              for n, row in enumerate(res["betti"], start=1)]
    checks += [(f"components level {n}", c, 1)
               for n, c in enumerate(res["components"], start=1)]
    checks += [(f"bonding {n + 1}->{n} well defined",
                _value(rep, "well_defined"), True)
               for n, rep in enumerate(res["bondings"], start=1)]
    checks += [(f"square at level {n}", sq if isinstance(sq, Raised) else sq[0],
                True)
               for n, sq in enumerate(res["squares"], start=1)]
    checks += [(f"thread probe {i}", th, [True] * 4)
               for i, th in enumerate(res["threads"])]
    checks.append(("f-vectors", res["f_vectors"], expect["f_vectors"]))
    digest = res["assignments"]
    if not isinstance(digest, Raised):
        digest = bonding_digest(digest)
    checks.append(("bonding digest", digest, expect["bonding_digest"]))
    return checks


# -- squares3-integral ---------------------------------------------------------

def squares3_integral(seed: int, workdir: str) -> dict:
    """`fintop homology --field z` on two_squares depth 3, per panel seed."""
    out = []
    for s in PANEL:
        tower = T.build_tower("two_squares", 3, k_max=2, seed=s)
        results = _betti_rows(tower, "z")
        comps = _components(tower)
        rows = [_value(r, "betti") for r in results]
        torsion = [_value(r, "torsion") for r in results]
        notes = [f"torsion level {n}: {t}" for n, t in enumerate(torsion, 1)
                 if not isinstance(t, Raised) and any(t)]
        write_output(os.path.join(workdir, f"squares3-{s}.csv"),
                     _homology_csv(rows, comps, tower.k_max, notes))
        out.append({"sampler_seed": s, "betti": rows, "torsion": torsion,
                    "components": comps, "f_vectors": _f_vectors(tower)})
        del tower
    return {"towers": out}


def check_squares3(res: dict, ref: dict) -> list[tuple]:
    checks = []
    for t in res["towers"]:
        s = t["sampler_seed"]
        levels = len(t["betti"])
        checks += [(f"seed {s} betti level {n}", row, TABLE1[n - 1])
                   for n, row in enumerate(t["betti"], start=1)]
        checks += [(f"seed {s} torsion level {n}", tor, [[]] * 3)
                   for n, tor in enumerate(t["torsion"], start=1)]
        checks += [(f"seed {s} components level {n}", c, 1)
                   for n, c in enumerate(t["components"], start=1)]
        # levels 1..3 of a depth-3 tower are those of the depth-5 tower
        checks.append((f"seed {s} f-vectors", t["f_vectors"],
                       ref["two_squares"][str(s)]["f_vectors"][:levels]))
    return checks


WORKLOADS = {
    "circle4-induced": (circle4_induced, check_circle4),
    "squares5-certify": (squares5_certify, check_squares5),
    "squares3-integral": (squares3_integral, check_squares3),
}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(name: str, res: dict) -> tuple[int, list[str]]:
    """Number of checked operations and a line per failed one."""
    checks = WORKLOADS[name][1](res, load_reference())
    failures = []
    for label, got, want in checks:
        if isinstance(got, Raised) or got is None or got != want:
            failures.append(f"{label}: got {got!r}, expected {want!r}")
    return len(checks), failures
