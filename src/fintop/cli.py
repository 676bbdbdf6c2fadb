"""Command line interface.

Subcommands:
  generate   write per-level sample points and a tower config
  build      build a tower and write a self-contained dump (and DOT files)
  homology   Betti numbers per level as CSV, plus component counts
  verify     schedule, bonding and thread certificates

Exit codes: 0 success; 1 usage error, a flag or config value of the wrong
type, shape or range; 2 validation failure, bad tower data; 3 resource cap.
Printed numbers have 12 significant digits; the point files of generate
hold every coordinate exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import finite_space as F
from . import homology as H
from . import limit as Lim
from . import metric as M
from . import tower as T

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


def fmt(v: float) -> str:
    return f"{float(v):.12g}"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=["circle", "cantor", "interval",
                                       "two_squares"],
                   help="named generator space")
    p.add_argument("--config", help="tower config JSON")
    p.add_argument("--depth", type=int, default=3,
                   help="number of levels for --space (default 3)")
    p.add_argument("--out", help="output path (default: stdout)")
    # no defaults here: a given flag ranks above the config
    p.add_argument("--tolerance", type=float,
                   help="relative tolerance for distance comparisons")
    p.add_argument("--max-dim", type=int,
                   help="largest stored element cardinality minus one")
    p.add_argument("--k-max", type=int,
                   help="top homology degree")
    p.add_argument("--relaxed", action="store_true",
                   help="use the halved-epsilon schedule without gamma")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for randomized generators")
    p.add_argument("--max-elements", type=int,
                   help="resource cap on stored simplices per level")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fintop",
        description="Finite topological approximation of compact metric spaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write sample points and a config")
    _add_common(g)

    b = sub.add_parser("build", help="build a tower and dump it")
    _add_common(b)
    b.add_argument("--dot", type=int, metavar="LEVEL",
                   help="also write the Hasse diagram of one level as DOT")

    h = sub.add_parser("homology", help="Betti numbers per level as CSV")
    _add_common(h)
    h.add_argument("--field", default="q",
                   help="coefficients: q, z, or p:PRIME (default q)")
    h.add_argument("--induced", action="store_true",
                   help="also print ranks of the bonding maps on homology")

    v = sub.add_parser("verify", help="schedule, bonding and thread checks")
    _add_common(v)
    v.add_argument("--thread", metavar="COORDS",
                   help="comma-separated point to thread through the tower")
    return ap


def _flags(args) -> dict:
    """The tower settings given on the command line, which rank above a
    config's; exit 1 on --space with --config, or on a --depth or --seed
    that no named space can take."""
    if args.space and args.config:
        raise CliError("give --space or --config, not both", EXIT_USAGE)
    if args.depth < 1:
        raise CliError(f"--depth {args.depth} must be at least 1", EXIT_USAGE)
    if args.seed < 0:
        raise CliError(f"--seed {args.seed} must be at least 0", EXIT_USAGE)
    return {key: getattr(args, key) for key in T.CONFIG_SETTINGS
            if getattr(args, key) is not None}


def make_tower(args) -> T.Tower:
    flags = _flags(args)
    if args.config:
        cfg = {**T.load_config(args.config), **flags}
        if args.relaxed:
            cfg["mode"] = T.RELAXED
        return T.tower_from_config(cfg, base_dir=os.path.dirname(args.config) or ".")
    if args.space:
        nums = T.config_settings(flags)
        mode = T.RELAXED if args.relaxed else None
        return T.build_tower(args.space, args.depth, max_dim=nums["max_dim"],
                             k_max=nums["k_max"], mode=mode, seed=args.seed,
                             max_elements=nums["max_elements"],
                             tol=nums["tolerance"])
    raise CliError("one of --space or --config is required", EXIT_USAGE)


@contextlib.contextmanager
def _writing(path):
    """Exit 1 with one line when path cannot be written."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}", EXIT_USAGE) from None


def _check_writable(path) -> None:
    """Exit 1 with one line unless path can be written, before any work is
    done; an existing file is left as it is, and none is created."""
    with _writing(path):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _open_out(args):
    if not args.out:
        return sys.stdout
    with _writing(args.out):
        return open(args.out, "w")


def cmd_generate(args) -> int:
    if not args.space:
        raise CliError("generate needs --space", EXIT_USAGE)
    settings = T.config_settings(_flags(args))
    samples, mode = T.space_samples(args.space, args.depth, args.seed,
                                    settings["max_elements"])
    if args.relaxed:
        mode = T.RELAXED
    outdir = args.out or "."
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)
    levels = []
    for n, sample in enumerate(samples, start=1):
        fname = f"{args.space}_level{n}.csv"
        path = os.path.join(outdir, fname)
        with _writing(path):
            M.save_points_csv(path, sample.points,
                              header=f"{args.space} level {n} "
                                     f"epsilon={fmt(sample.epsilon)}")
        entry = {"points_file": fname, "epsilon": sample.epsilon}
        if sample.gamma is not None:
            entry["gamma"] = sample.gamma
        levels.append(entry)
        for w in sample.warnings:
            print(f"warning: level {n}: {w}", file=sys.stderr)
    cfg = {"mode": mode, **settings, "label": args.space,
           "context": {"kind": samples[0].context.kind}, "levels": levels}
    cfg_path = os.path.join(outdir, f"{args.space}_tower.json")
    with _writing(cfg_path), open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    print(f"wrote {args.depth} point files and {cfg_path}")
    return EXIT_OK


def cmd_build(args) -> int:
    if args.dot is not None:
        base = args.out or "tower.json"
        dot_path = os.path.splitext(base)[0] + f"_level{args.dot}.dot"
        _check_writable(dot_path)
    if args.out:
        _check_writable(args.out)
    tower = make_tower(args)
    if args.dot is not None:
        if not 1 <= args.dot <= len(tower):
            raise CliError(f"--dot level {args.dot} out of range", EXIT_USAGE)
        term = tower.term(args.dot)
        # the face poset has a point per stored element: refuse before
        # building it
        try:
            F.check_dot_cap(len(term.complex))
        except F.FiniteSpaceError as exc:
            raise CliError(str(exc), EXIT_RESOURCE)
        dot = F.to_dot(term.space(), name=f"level_{args.dot}")
        with _writing(dot_path), open(dot_path, "w") as fh:
            fh.write(dot + "\n")
        print(f"wrote {dot_path}", file=sys.stderr)
    dump = T.dump_tower(tower)
    fh = _open_out(args)
    json.dump(dump, fh, indent=2)
    fh.write("\n")
    if args.out:
        fh.close()
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_homology(args) -> int:
    try:
        H.parse_field(args.field)
    except H.HomologyError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    if args.out:
        _check_writable(args.out)
    tower = make_tower(args)
    rows = []
    torsion_notes = []
    for n in range(1, len(tower) + 1):
        res = H.betti_numbers(tower.term(n).complex, tower.k_max, args.field)
        rows.append(res.betti)
        if res.torsion and any(res.torsion):
            torsion_notes.append(f"level {n}: torsion {res.torsion}")
    fh = _open_out(args)
    header = "degree," + ",".join(f"level_{n}" for n in range(1, len(tower) + 1))
    fh.write(header + "\n")
    for k in range(tower.k_max + 1):
        fh.write(f"H_{k}," + ",".join(str(r[k]) for r in rows) + "\n")
    # b_0 is the number of components of the 1-skeleton for any coefficients
    fh.write("components," + ",".join(str(r[0]) for r in rows) + "\n")
    if args.induced:
        for n in range(1, len(tower)):
            for k in range(tower.k_max + 1):
                r = induced_bonding_rank(tower, n, n + 1, k, args.field)
                fh.write(f"rank H_{k}(q_{n}_{n + 1}),"
                         f"{'undefined' if r is None else r}\n")
    if args.out:
        fh.close()
        print(f"wrote {args.out}")
    for note in torsion_notes:
        print(note, file=sys.stderr)
    return EXIT_OK


def induced_bonding_rank(tower: T.Tower, n: int, m: int, k: int,
                         field_spec: str = "q"):
    """Rank of the bonding map q_{n,m} on degree-k homology.

    The rank is computed on the Rips complexes of levels m and n through
    the selection vertex map s(v) = min q_{n,m}({v}).  For every element C
    of level m, s(C) is a subset of q_{n,m}(C), so s(C) >= q_{n,m}(C) in
    the reverse-inclusion order of the face posets.  Comparable maps into
    a finite space are homotopic, and the face poset of a complex is weakly
    equivalent to the complex (McCord 1966; Barmak, Algebraic Topology of
    Finite Topological Spaces, LNM 2032), so s and q_{n,m} induce the same
    map on homology.  That argument needs q_{n,m} to be a map between the
    terms: returns None when the bonding is not well defined or has an
    empty image.
    """
    if not tower.bonding_report(n, m).well_defined:
        return None
    return H.induced_rank(tower.term(m).complex, tower.term(n).complex,
                          tower.selection(n, m), k, field_spec)


def _thread_point(spec: str, ctx: M.MetricContext) -> np.ndarray:
    """The point a --thread value names: one coordinate per dimension of
    the space, an angle on the geodesic circle."""
    if ctx.kind == "explicit":
        raise CliError("--thread needs a euclidean or circle space", EXIT_USAGE)
    try:
        coords = [float(v) for v in spec.split(",")]
    except ValueError:
        raise CliError(f"--thread {spec!r}: coordinates must be numbers",
                       EXIT_USAGE)
    if not all(np.isfinite(coords)):
        raise CliError(f"--thread {spec!r}: coordinates must be finite",
                       EXIT_USAGE)
    if len(coords) != ctx.dimension:
        raise CliError(f"--thread {spec!r}: {len(coords)} coordinates given, "
                       f"the space needs {ctx.dimension}", EXIT_USAGE)
    return np.array(coords)


def _witness(tower: T.Tower, m: int, rep: T.BondingReport) -> str:
    """The element of level m that a failed bonding report names."""
    i = rep.worst_element
    image = ("empty image" if rep.empty_images
             else f"image diameter {fmt(rep.worst_diameter)}")
    return (f"; witness: level {m} element {i} "
            f"{list(tower.term(m).complex.all_simplices()[i])}, {image}")


def cmd_verify(args) -> int:
    tower = make_tower(args)
    if args.thread is not None:
        x = _thread_point(args.thread, tower.term(1).sample.context)
    failures = 0
    # make_tower enforces the schedule, so a tower here satisfies it
    print(f"ok schedule: {tower.mode} inequalities hold on {len(tower)} levels")
    for n, rep in enumerate(tower.verify_bondings(), start=1):
        tag, witness = "ok", ""
        if not rep.well_defined:
            tag, witness = "FAIL", _witness(tower, n + 1, rep)
            failures += 1
        print(f"{tag} bonding {n + 1}->{n}: worst diameter "
              f"{fmt(rep.worst_diameter)} < {fmt(rep.bound)}, "
              f"empty={rep.empty_images}, capped={rep.capped_images}{witness}")
    for n in range(1, len(tower) - 1):
        ok, worst = tower.projection_square_certificate(n)
        tag, witness = "ok", ""
        if not ok:
            tag = "FAIL"
            witness = _witness(tower, n + 2, tower.bonding_report(n, n + 2))
            failures += 1
        print(f"{tag} square at level {n}: union diameter {fmt(worst)} < "
              f"{fmt(tower.term(n).threshold)}{witness}")
    if args.thread is not None:
        th = Lim.canonical_thread(tower, x)
        rep = Lim.verify_thread(tower, th)
        checks = [("compatible", rep.compatible),
                  ("element-bounds", all(rep.element_levels)),
                  ("convergence", rep.convergence_ok),
                  ("ball-bound", rep.ball_bound_ok),
                  ("inter-level", rep.inter_level_ok)]
        for name, ok in checks:
            tag = "ok" if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"{tag} thread {name}")
        print("thread convergence: " +
              ", ".join(fmt(v) for v in rep.convergence))
    return EXIT_VALIDATION if failures else EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to the contract
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    handlers = {"generate": cmd_generate, "build": cmd_build,
                "homology": cmd_homology, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except T.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (M.MetricError, T.TowerError, F.FiniteSpaceError,
            H.HomologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except T.ResourceCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
