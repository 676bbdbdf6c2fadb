import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from fintop import cli
from fintop import homology as H
from fintop import limit as Lim
from fintop import metric as M
from fintop import tower as T


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_without_subcommand(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def test_usage_error_missing_space(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == cli.EXIT_USAGE
    assert "space" in err or "config" in err


def test_generate_and_build_roundtrip(tmp_path, capsys):
    code, out, err = run(["generate", "--space", "circle", "--depth", "3",
                          "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    cfg_path = tmp_path / "circle_tower.json"
    assert cfg_path.exists()
    for n in (1, 2, 3):
        assert (tmp_path / f"circle_level{n}.csv").exists()
    cfg = json.loads(cfg_path.read_text())
    assert cfg["mode"] == "strict" and len(cfg["levels"]) == 3

    dump_path = tmp_path / "tower.json"
    code, out, err = run(["build", "--config", str(cfg_path),
                          "--out", str(dump_path)], capsys)
    assert code == cli.EXIT_OK
    dump = json.loads(dump_path.read_text())
    assert len(dump["levels"]) == 3
    assert len(dump["levels"][2]["elements"]) == 256


@pytest.mark.parametrize("space, depth, digest", [
    ("circle", 4,
     "84d77fcd3b3713df56b25dbdf967e9de8a26f577a2f6ef7f52d9593511a96775"),
    ("cantor", 5,
     "6e11a1a079df6aadc9917b8e916d7884aaa4dc782bab5c83f0513a47e4b133d8"),
    ("two_squares", 3,
     "7ecc3331764520580fc87e651e1d41d432950e27075fc002953d5018472c1a73"),
])
def test_build_dump_bytes_are_pinned(space, depth, digest, capsys):
    # sha256 of the stdout of `fintop build --space SPACE --depth DEPTH
    # --seed 7 --k-max 2`: a change to how a dump is stored or written must
    # keep every byte
    code, out, err = run(["build", "--space", space, "--depth", str(depth),
                          "--seed", "7", "--k-max", "2"], capsys)
    assert code == cli.EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generate_writes_the_tower_that_space_builds(tmp_path, capsys):
    code, out, err = run(["generate", "--space", "two_squares", "--depth", "3",
                          "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK, err
    cfg_path = str(tmp_path / "two_squares_tower.json")
    generated = T.tower_from_config(T.load_config(cfg_path), base_dir=str(tmp_path))
    built = T.build_tower("two_squares", 3)
    assert generated.mode == built.mode == T.RELAXED
    assert [t.complex.f_vector() for t in generated.terms] == \
        [t.complex.f_vector() for t in built.terms]
    tables = []
    for source in (["--config", cfg_path], ["--space", "two_squares"]):
        code, out, err = run(["homology", "--depth", "3", "--induced"] + source,
                             capsys)
        assert code == cli.EXIT_OK, err
        tables.append(out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("space", ["circle", "cantor", "interval",
                                   "two_squares"])
def test_generate_writes_points_exactly(space, tmp_path, capsys):
    # the config tower has the points of --space bit for bit, so its dump
    # is byte-identical
    code, _, err = run(["generate", "--space", space, "--depth", "3",
                        "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK, err
    dumps = []
    for source in (["--config", str(tmp_path / f"{space}_tower.json")],
                   ["--space", space, "--depth", "3"]):
        out = tmp_path / f"dump{len(dumps)}.json"
        code, _, err = run(["build", *source, "--out", str(out)], capsys)
        assert code == cli.EXIT_OK, err
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]
    if space == "circle":
        assert (tmp_path / "circle_level2.csv").read_text().splitlines()[2] \
            == repr(math.pi / 2)


def test_flags_override_the_config(tmp_path, capsys):
    cfg = {"mode": "strict", "max_dim": 2, "k_max": 1, "tolerance": 0.001,
           "max_elements": 500,
           "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0, "gamma": 0.5},
                      {"points": [[0.0], [0.5], [1.0]], "epsilon": 0.2}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))

    def tower(*flags):
        args = cli.build_parser().parse_args(["homology", "--config", str(p),
                                              *flags])
        tw = cli.make_tower(args)
        return (tw.mode, tw.max_dim, tw.k_max, tw.tol, tw.max_elements)

    assert tower() == ("strict", 2, 1, 0.001, 500)
    assert tower("--max-dim", "3", "--k-max", "2", "--tolerance", "1e-6",
                 "--max-elements", "900", "--relaxed") == \
        ("relaxed", 3, 2, 1e-6, 900)
    del cfg["max_dim"], cfg["tolerance"], cfg["max_elements"]
    p.write_text(json.dumps(cfg))
    assert tower("--k-max", "1") == ("strict", 3, 1, 1e-9, T.DEFAULT_MAX_ELEMENTS)
    code, out, err = run(["homology", "--config", str(p), "--k-max", "2"], capsys)
    assert code == cli.EXIT_OK, err
    assert out.splitlines()[3] == "H_2,0,0"


@pytest.mark.parametrize("command", ["generate", "build", "homology", "verify"])
@pytest.mark.parametrize("argv, message", [
    (["--depth", "0"], "--depth 0 must be at least 1"),
    (["--seed", "-5"], "--seed -5 must be at least 0"),
    (["--max-elements", "0"], "max_elements=0 must be at least 1"),
    (["--max-elements", "-5"], "max_elements=-5 must be at least 1"),
])
def test_depth_and_seed_are_checked_first(command, argv, message, tmp_path,
                                          capsys):
    out_dir = tmp_path / "out"
    code, out, err = run([command, "--space", "two_squares", "--depth", "1",
                          "--out", str(out_dir)] + argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["generate", "build", "homology", "verify"])
def test_space_and_config_together_exit_with_one_line(command, tmp_path, capsys):
    code, _, _ = run(["generate", "--space", "circle", "--depth", "2",
                      "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_OK
    out_path = tmp_path / "out"
    code, out, err = run([command, "--config", str(tmp_path / "circle_tower.json"),
                          "--space", "cantor", "--depth", "5",
                          "--out", str(out_path)], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: give --space or --config, not both\n"
    assert not out_path.exists()


def test_build_dot_export(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, out, err = run(["build", "--space", "circle", "--depth", "2",
                          "--out", str(out_path), "--dot", "2"], capsys)
    assert code == cli.EXIT_OK
    dot = (tmp_path / "t_level2.dot").read_text()
    assert dot.startswith("digraph")


def test_build_dot_cap(tmp_path, capsys, monkeypatch):
    # level 4 has 2048 elements, above the 500-element DOT cap: the refusal
    # comes before the face poset is built and before anything is written
    def no_space(term):
        raise AssertionError("Term.space called above the DOT cap")

    monkeypatch.setattr(T.Term, "space", no_space)
    code, out, err = run(["build", "--space", "circle", "--depth", "4",
                          "--out", str(tmp_path / "t.json"), "--dot", "4"],
                         capsys)
    assert code == cli.EXIT_RESOURCE
    assert err == "error: space has 2048 elements, above the DOT cap of 500\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "build", "homology", "verify"])
def test_depth_refused_at_the_first_level_above_the_cap(command, tmp_path, capsys,
                                                        monkeypatch):
    # circle level 5 has 2048 points, each a stored element, above the cap
    # of 1000: the refusal comes before level 6 is drawn and before any term
    # is built
    drawn = []

    def circle(level):
        drawn.append(level)
        return M.circle_sample(level)

    def no_term(*args, **kwargs):
        raise AssertionError("build_term called above the element cap")

    monkeypatch.setitem(T.GENERATORS, "circle", circle)
    monkeypatch.setattr(T, "build_term", no_term)
    code, out, err = run([command, "--space", "circle", "--depth", "6",
                          "--max-elements", "1000",
                          "--out", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_RESOURCE
    assert err == "error: level 5 has 2048 points, above the cap of 1000 elements\n"
    assert out == ""
    assert drawn == [1, 2, 3, 4, 5]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build", "homology", "verify"])
def test_a_distance_matrix_that_cannot_be_allocated(command, tmp_path, capsys,
                                                    monkeypatch):
    # 2^17 points would need a 128 GiB matrix, and no command asks for one:
    # the stand-in, which raises as numpy's allocation would, is never called
    def no_memory(ctx, points):
        raise MemoryError(f"Unable to allocate 128. GiB for an array with "
                          f"shape ({len(points)}, {len(points)})")

    monkeypatch.setattr(M, "points_distance_matrix", no_memory)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "relaxed", "levels": [
        {"points": [[i / 1000] for i in range(2 ** 17)], "epsilon": 1e-4}]}))
    out_path = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    code, out, err = run(argv + (["--out", str(out_path)]
                                 if command == "build" else []), capsys)
    assert code == cli.EXIT_OK
    assert err == ""
    if command == "build":
        # points 1/1000 apart at threshold 4e-4: every element is a point
        dump = json.loads(out_path.read_text())
        assert dump["levels"][0]["elements"] == [[i] for i in range(2 ** 17)]
    elif command == "homology":
        assert out.splitlines()[1:] == ["H_0,131072", "H_1,0",
                                        "components,131072"]
    else:
        assert out == "ok schedule: relaxed inequalities hold on 1 levels\n"


@pytest.mark.parametrize("argv, path, errno_", [
    (["homology", "--out", "{tmp}/missing/b.csv"], "{tmp}/missing/b.csv",
     errno.ENOENT),
    (["build", "--out", "{tmp}/missing/t.json"], "{tmp}/missing/t.json",
     errno.ENOENT),
    (["homology", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
    (["build", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
    (["build", "--dot", "2", "--out", "{tmp}/missing/t.json"],
     "{tmp}/missing/t_level2.dot", errno.ENOENT),
    (["generate", "--out", "{tmp}/file"], "{tmp}/file", errno.EEXIST),
    (["generate", "--out", "{tmp}"], "{tmp}/circle_level1.csv", errno.EISDIR),
], ids=["homology-missing-dir", "build-missing-dir", "homology-dir",
        "build-dir", "dot-missing-dir", "generate-onto-file",
        "generate-onto-dir"])
def test_unwritable_outputs_exit_with_one_line(argv, path, errno_, tmp_path,
                                               capsys, monkeypatch):
    # every output path is checked before the tower is built
    def no_tower(*args, **kwargs):
        raise AssertionError("build_tower called before the outputs were checked")

    monkeypatch.setattr(T, "build_tower", no_tower)
    (tmp_path / "file").write_text("kept")
    (tmp_path / "circle_level1.csv").mkdir()
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(argv + ["--space", "circle", "--depth", "2"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == (f"error: cannot write {path.format(tmp=tmp_path)}: "
                   f"{os.strerror(errno_)}\n")
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("argv, kept", [
    (["homology", "--out", "{tmp}/file"], ["file"]),
    (["build", "--out", "{tmp}/file", "--dot", "2"], ["file"]),
    (["build", "--out", "{tmp}/new.json", "--dot", "2"], ["file"]),
], ids=["homology-onto-file", "build-onto-file", "build-new-files"])
def test_a_late_failure_leaves_the_outputs_as_they_were(argv, kept, tmp_path,
                                                        capsys):
    # circle level 3 has 256 elements, above the cap of 40: the run stops
    # after its outputs were checked, and writes nothing
    (tmp_path / "file").write_text("kept")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(argv + ["--space", "circle", "--depth", "3",
                                 "--max-elements", "40"], capsys)
    assert code == cli.EXIT_RESOURCE
    assert err == "error: Rips complex exceeds cap of 40 simplices\n"
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == kept
    assert (tmp_path / "file").read_text() == "kept"


def test_homology_csv(tmp_path, capsys):
    out_path = tmp_path / "betti.csv"
    code, out, err = run(["homology", "--space", "circle", "--depth", "3",
                          "--k-max", "1", "--out", str(out_path)], capsys)
    assert code == cli.EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "degree,level_1,level_2,level_3"
    assert lines[1] == "H_0,1,1,1"
    assert lines[2] == "H_1,0,0,1"
    assert lines[3] == "components,1,1,1"


def test_homology_bad_field(capsys):
    code, out, err = run(["homology", "--space", "circle", "--depth", "2",
                          "--field", "gf4"], capsys)
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("field", [
    "p:x", "p:", "p:1", "p:4", "p:-3",
    # refused by the bound of 2^31 before int() and trial division: 5000
    # digits exceed int()'s digit limit, and a 19-digit prime would take
    # seconds of trial division
    pytest.param("p:" + "7" * 400, id="400-digits"),
    pytest.param("p:" + "7" * 5000, id="5000-digits"),
    pytest.param("p:1000000000000000003", id="prime-above-2^31")])
def test_homology_field_must_be_prime(field, capsys, monkeypatch):
    def no_tower(args):
        pytest.fail("the tower was built before the field was checked")

    is_prime = H.L.is_prime

    def bounded_is_prime(p):
        assert p < 2 ** 31, "trial division above the bound"
        return is_prime(p)

    monkeypatch.setattr(cli, "make_tower", no_tower)
    monkeypatch.setattr(H.L, "is_prime", bounded_is_prime)
    code, out, err = run(["homology", "--space", "circle", "--depth", "2",
                          "--field", field], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prime below 2^31" in err


def test_homology_induced(tmp_path, capsys):
    out_path = tmp_path / "betti.csv"
    code, out, err = run(["homology", "--space", "circle", "--depth", "3",
                          "--k-max", "1", "--induced",
                          "--out", str(out_path)], capsys)
    assert code == cli.EXIT_OK
    text = out_path.read_text()
    assert "rank H_0(q_1_2),1" in text
    assert "rank H_1(q_2_3),0" in text


@pytest.mark.parametrize("argv", [
    ["--space", "circle", "--max-dim", "1"],
    ["--space", "two_squares", "--max-dim", "2", "--k-max", "2"],
])
def test_homology_max_dim_below_k_max_plus_one(argv, capsys):
    code, out, err = run(["homology", "--depth", "3"] + argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: max_dim=") and err.count("\n") == 1


def test_config_max_dim_below_k_max_plus_one(tmp_path, capsys):
    cfg = {"mode": "relaxed", "max_dim": 1, "k_max": 1,
           "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_USAGE
    assert "k_max + 1" in err


def test_verify_ok_with_thread(capsys):
    code, out, err = run(["verify", "--space", "circle", "--depth", "3",
                          "--thread", "0.7"], capsys)
    assert code == cli.EXIT_OK
    assert "ok schedule" in out
    assert "ok thread compatible" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("space, thread, message", [
    ("circle", "abc", "must be numbers"),
    ("circle", "0.5,", "must be numbers"),
    ("circle", "1,2", "the space needs 1"),
    ("circle", "nan", "must be finite"),
    ("two_squares", "1,2,3", "the space needs 2"),
    ("two_squares", "0.5,inf", "must be finite"),
])
def test_verify_thread_must_be_a_point(space, thread, message, capsys):
    code, out, err = run(["verify", "--space", space, "--depth", "2",
                          "--thread", thread], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: --thread") and err.count("\n") == 1
    assert message in err


def test_verify_thread_on_explicit_metric(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,1,2\n1,0,1\n2,1,0\n")
    cfg = {"mode": "relaxed",
           "context": {"kind": "explicit", "matrix_file": str(matrix)},
           "levels": [{"points": [0, 2], "epsilon": 1.0},
                      {"points": [0, 1, 2], "epsilon": 0.4}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["verify", "--config", str(p), "--thread", "1"],
                         capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --thread needs a euclidean or circle space\n"


def write_circle_matrix(path):
    """Geodesic distances of 8 equispaced points on the circle, as CSV."""
    step = 2 * math.pi / 8
    rows = [",".join(repr(step * min(abs(i - j), 8 - abs(i - j)))
                     for j in range(8)) for i in range(8)]
    path.write_text("\n".join(rows) + "\n")


def test_config_matrix_file_is_relative_to_the_config(tmp_path, monkeypatch,
                                                      capsys):
    confdir = tmp_path / "conf"
    confdir.mkdir()
    write_circle_matrix(confdir / "m.csv")
    cfg = {"mode": "relaxed",
           "context": {"kind": "explicit", "matrix_file": "m.csv"},
           "levels": [{"points": list(range(8)), "epsilon": 0.3}]}
    (confdir / "cfg.json").write_text(json.dumps(cfg))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, err = run(["homology", "--config",
                          os.path.join("..", "conf", "cfg.json")], capsys)
    assert code == cli.EXIT_OK, err
    assert out.splitlines()[1:3] == ["H_0,1", "H_1,1"]


def test_config_matrix_file_is_read_once(tmp_path, monkeypatch, capsys):
    write_circle_matrix(tmp_path / "m.csv")
    cfg = {"mode": "relaxed",
           "context": {"kind": "explicit", "matrix_file": "m.csv"},
           "levels": [{"points": [0, 4], "epsilon": 1.6},
                      {"points": [0, 2, 4, 6], "epsilon": 0.7},
                      {"points": list(range(8)), "epsilon": 0.3}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    calls = []

    def counted(path, _real=M.load_matrix_csv):
        calls.append(path)
        return _real(path)
    monkeypatch.setattr(M, "load_matrix_csv", counted)
    code, out, err = run(["homology", "--config", str(tmp_path / "cfg.json")],
                         capsys)
    assert code == cli.EXIT_OK, err
    assert len(calls) == 1


@pytest.mark.parametrize("bad, message", [
    (-1, "explicit point index -1.0 is not an integer in 0..7"),
    (0.5, "explicit point index 0.5 is not an integer in 0..7"),
    (9, "explicit point index 9.0 is not an integer in 0..7"),
    (True, "non-numeric coordinate in level 1 points"),
], ids=["negative", "fraction", "past-the-end", "boolean"])
@pytest.mark.parametrize("command", ["verify", "homology"])
def test_config_explicit_points_are_matrix_indices(bad, message, command,
                                                   tmp_path, capsys):
    # a bad index, or a JSON true where an index should be, exits with one
    # line and no output
    write_circle_matrix(tmp_path / "m.csv")
    cfg = {"mode": "relaxed",
           "context": {"kind": "explicit", "matrix_file": "m.csv"},
           "levels": [{"points": [0, 2, 4, bad], "epsilon": 1.0}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code, out, err = run([command, "--config", str(tmp_path / "cfg.json")],
                         capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("second, dim, want", [
    ([[0.0, 0.0], [1.0, 0.0]], 2, 1),
    ([0.0, 0.3, 0.6, 1.0], 1, 2),
], ids=["wider", "flat"])
@pytest.mark.parametrize("command", ["verify", "homology"])
def test_config_points_must_fit_the_context(second, dim, want, command,
                                            tmp_path, capsys):
    first = [[0.0] * want, [1.0] * want]
    cfg = _config(tmp_path, [{"points": first, "epsilon": 1.0},
                             {"points": second, "epsilon": 0.4}])
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == (f"error: level 2: points of dimension {dim}, "
                   f"the euclidean context has dimension {want}\n")


@pytest.mark.parametrize("key", ["max_dim", "k_max", "tolerance",
                                 "max_elements", "epsilon"])
def test_config_value_must_be_a_number(key, tmp_path, capsys):
    bad = {"x": "is not a number", True: "is not a number"}
    if T.CONFIG_SETTINGS.get(key, (float,))[0] is int:
        # refused, not truncated to 2
        bad[2.5] = "is not an integer"
    for value, message in bad.items():
        cfg = {"mode": "relaxed",
               "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0}]}
        (cfg["levels"][0] if key == "epsilon" else cfg)[key] = value
        with pytest.raises(T.TowerError,
                           match=re.escape(f"{key}={value!r} {message}")):
            T.tower_from_config(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, out, err = run(["homology", "--config", str(p)], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key}={value!r}" in err


POINTS = {"points": [[0.0], [1.0]], "epsilon": 1.0}


@pytest.mark.parametrize("cfg, code, message", [
    ({"levels": [1]}, cli.EXIT_USAGE, "level 1: 1 is not an object"),
    ({"levels": 5}, cli.EXIT_USAGE, "levels=5 is not a list"),
    ({"context": "euclidean", "levels": [POINTS]}, cli.EXIT_USAGE,
     "context='euclidean' is not an object"),
    # a named space enters a tower through --space or generate, not a level
    ({"levels": [{"generator": "circle", "level": 1}]}, cli.EXIT_USAGE,
     "level 1: unknown key 'generator'"),
    ({"context": {"kind": "explicit"}, "levels": [POINTS]}, cli.EXIT_USAGE,
     "context={'kind': 'explicit'} needs a matrix_file"),
    ({"levels": [dict(POINTS, gamma=True)]}, cli.EXIT_VALIDATION,
     "level 1: gamma=True is not a number"),
    ({"levels": [dict(POINTS, points=5)]}, cli.EXIT_USAGE,
     "level 1: points=5 is not a non-empty list"),
    ({"levels": [POINTS, dict(POINTS, points=None)]}, cli.EXIT_USAGE,
     "level 2: points=None is not a non-empty list"),
    ({"levels": [dict(POINTS, points=[])]}, cli.EXIT_USAGE,
     "level 1: points=[] is not a non-empty list"),
    # numbers must be finite JSON numbers: json writes NaN and Infinity
    ({"levels": [dict(POINTS, epsilon=math.nan)]}, cli.EXIT_USAGE,
     "level 1: epsilon=nan is not finite"),
    ({"levels": [dict(POINTS, epsilon=math.inf)]}, cli.EXIT_USAGE,
     "level 1: epsilon=inf is not finite"),
    ({"levels": [dict(POINTS, epsilon="0.5")]}, cli.EXIT_USAGE,
     "level 1: epsilon='0.5' is not a number"),
    ({"max_dim": "3", "levels": [POINTS]}, cli.EXIT_USAGE,
     "max_dim='3' is not a number"),
    ({"tolerance": "1e-9", "levels": [POINTS]}, cli.EXIT_USAGE,
     "tolerance='1e-9' is not a number"),
    ({"levels": [dict(POINTS, epsilon=0)]}, cli.EXIT_USAGE,
     "level 1: epsilon=0 must be above 0"),
    ({"levels": [POINTS, dict(POINTS, epsilon=-1)]}, cli.EXIT_USAGE,
     "level 2: epsilon=-1 must be above 0"),
    ({"context": {"kind": "torus"}, "levels": [POINTS]}, cli.EXIT_USAGE,
     "context={'kind': 'torus'} needs a kind: euclidean, circle_geodesic "
     "or explicit"),
    ({"context": {}, "levels": [POINTS]}, cli.EXIT_USAGE,
     "context={} needs a kind: euclidean, circle_geodesic or explicit"),
    ({"mode": "lenient", "levels": [POINTS]}, cli.EXIT_USAGE,
     "unknown schedule mode 'lenient'"),
    ({"levels": [{"points_file": 5, "epsilon": 1.0}]}, cli.EXIT_USAGE,
     "level 1: points_file=5 is not a string"),
    ({"levels": [dict(POINTS, gamma=10 ** 400)]}, cli.EXIT_VALIDATION,
     f"level 1: gamma={10 ** 400} must be finite and at least 0"),
    ({"levels": [dict(POINTS, gamma=math.nan)]}, cli.EXIT_VALIDATION,
     "level 1: gamma=nan must be finite and at least 0"),
    ({"levels": [dict(POINTS, gamma=-0.5)]}, cli.EXIT_VALIDATION,
     "level 1: gamma=-0.5 must be finite and at least 0"),
    ({"levels": [dict(POINTS, points=[["0.5"], [1.0]])]}, cli.EXIT_VALIDATION,
     "non-numeric coordinate in level 1 points"),
    ({"max_elements": -1, "levels": [POINTS]}, cli.EXIT_USAGE,
     "max_elements=-1 must be at least 1"),
], ids=["level-not-object", "levels-not-list", "context-not-object",
        "generator-level", "explicit-without-matrix", "gamma-boolean",
        "points-number", "points-null", "points-empty", "epsilon-nan",
        "epsilon-inf", "epsilon-string", "max-dim-string", "tolerance-string",
        "epsilon-zero", "epsilon-negative", "context-unknown-kind",
        "context-without-kind", "mode-unknown", "points-file-number",
        "gamma-beyond-floats", "gamma-nan", "gamma-negative",
        "point-string", "element-cap"])
def test_config_shape_errors_exit_cleanly(cfg, code, message, tmp_path,
                                          capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "relaxed", **cfg}))
    got, out, err = run(["homology", "--config", str(p)], capsys)
    assert got == code
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg.update({"k-max": 2}), "unknown key 'k-max'"),
    (lambda cfg: cfg["levels"][0].update(gama=0.5),
     "level 1: unknown key 'gama'"),
    (lambda cfg: cfg["levels"][1].update(gamma_exact=False),
     "level 2: unknown key 'gamma_exact'"),
    (lambda cfg: cfg.update(context={"kind": "explicit", "matrixfile": "m.csv"}),
     "context: unknown key 'matrixfile'"),
    # the file would win over the inline points without a word
    (lambda cfg: cfg["levels"][1].update(points_file="pts.csv"),
     "level 2: give points or points_file, not both"),
], ids=["setting", "level", "gamma-exact", "context", "both-points"])
def test_config_keys_are_those_a_tower_reads(edit, message, tmp_path, capsys):
    (tmp_path / "pts.csv").write_text("0\n5\n")
    cfg = {"mode": "relaxed", "levels": [{"points": [[0.0], [1.0]],
                                          "epsilon": 1.0},
                                         {"points": [[0.0], [1.0]],
                                          "epsilon": 0.4}]}
    edit(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_a_dump_is_not_a_config(tmp_path, capsys):
    # circle angles read as Euclidean points gave a wrong Betti row
    dump = str(tmp_path / "t.json")
    code, _, _ = run(["build", "--space", "circle", "--depth", "4",
                      "--out", dump], capsys)
    assert code == cli.EXIT_OK
    code, out, err = run(["homology", "--config", dump], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: unknown key 'threshold_factor'\n"


def test_verify_thread_uses_the_tower_tolerance(tmp_path, capsys, monkeypatch):
    cfg = {"mode": "relaxed", "tolerance": 0.001,
           "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0},
                      {"points": [[0.0], [0.5], [1.0]], "epsilon": 0.4}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    seen = []
    for name in ("canonical_thread", "verify_thread"):
        def spy(*args, _real=getattr(Lim, name), **kwargs):
            seen.append(args[0].tol)      # the tower both functions read
            return _real(*args, **kwargs)
        monkeypatch.setattr(Lim, name, spy)
    code, out, err = run(["verify", "--config", str(p), "--thread", "0.2"],
                         capsys)
    assert code == cli.EXIT_OK, out
    assert seen == [0.001, 0.001]


@pytest.mark.parametrize("text, message", [
    ('{"mode": "relaxed", "levels": [', "is not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    (None, "cannot read config"),
    (b'\xff{"mode": "relaxed"}', "is not valid JSON"),
], ids=["truncated", "not-an-object", "missing", "not-text"])
def test_config_file_must_be_a_json_object(text, message, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    elif text is not None:
        p.write_text(text)
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and str(p) in err


def test_components_use_the_tower_tolerance(tmp_path, capsys):
    # 3.999999 is within the relative tolerance 0.001 of the threshold
    # 4 * epsilon, so neither the complex nor the threshold graph has the edge
    cfg = {"mode": "relaxed", "tolerance": 0.001,
           "levels": [{"points": [[0.0], [3.999999]], "epsilon": 1.0}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_OK, err
    assert out.splitlines()[1] == "H_0,2"
    assert out.splitlines()[-1] == "components,2"


def test_config_points_level_needs_epsilon(tmp_path, capsys):
    cfg = {"mode": "relaxed", "levels": [{"points": [[0.0], [1.0]]}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == "error: level 1: needs epsilon\n"


def test_config_points_must_have_one_arity(tmp_path, capsys):
    cfg = {"mode": "relaxed",
           "levels": [{"points": [[0.0, 0.0], [1.0]], "epsilon": 1.0}]}
    with pytest.raises(M.MetricError,
                       match="inconsistent coordinate arity in level 1 points"):
        T.tower_from_config(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == "error: inconsistent coordinate arity in level 1 points\n"


@pytest.mark.parametrize("level, points_file, message", [
    ({"points": [["a"], [1.0]]}, None,
     "non-numeric coordinate in level 1 points"),
    ({"points": [[0.0], [None]]}, None,
     "non-finite coordinate in level 1 points"),
    ({"points": [[[0.5]], [[1.5]]]}, None,
     "non-numeric coordinate in level 1 points"),
    ({"points_file": "pts.csv"}, "0.0\n# comment\nabc\n",
     "non-numeric coordinate in {dir}/pts.csv, line 3"),
    ({"points": [[0.0], [1.0]], "gamma": "x"}, None,
     "level 1: gamma='x' is not a number"),
], ids=["inline-points", "inline-null", "inline-nested", "csv-cell", "gamma"])
def test_config_values_must_be_numeric(level, points_file, message, tmp_path,
                                       capsys):
    cfg = {"mode": "relaxed", "levels": [dict(level, epsilon=1.0)]}
    if points_file is not None:
        (tmp_path / "pts.csv").write_text(points_file)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    message = message.format(dir=tmp_path)
    with pytest.raises(M.MetricError, match=re.escape(message)):
        T.tower_from_config(cfg, base_dir=str(tmp_path))
    for command in ("homology", "verify"):
        code, out, err = run([command, "--config", str(p)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("context, level", [
    ({}, {"points_file": "nope.csv"}),
    ({}, {"points_file": "."}),
    ({"context": {"kind": "explicit", "matrix_file": "nope.csv"}},
     {"points": [0, 1]}),
], ids=["points-missing", "points-directory", "matrix-missing"])
def test_config_files_that_cannot_be_read(context, level, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "relaxed", **context,
                             "levels": [dict(level, epsilon=1.0)]}))
    name = level.get("points_file", "nope.csv")
    code, out, err = run(["homology", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith(f"error: cannot read {os.path.join(tmp_path, name)}: ")
    assert err.count("\n") == 1


def test_config_points_file_that_is_not_text(tmp_path, capsys):
    (tmp_path / "pts.csv").write_bytes(b"0.0\n\xff\xfe\n")
    cfg = _config(tmp_path, [{"points_file": "pts.csv", "epsilon": 1.0}])
    code, out, err = run(["homology", "--config", cfg], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == ("error: non-numeric coordinate in "
                   f"{os.path.join(tmp_path, 'pts.csv')}, line 2\n")


@pytest.mark.parametrize("space, depth", [("circle", 4), ("cantor", 6),
                                          ("two_squares", 3)])
def test_components_row_counts_the_threshold_graph(space, depth, capsys):
    code, out, err = run(["homology", "--space", space, "--depth", str(depth)],
                         capsys)
    assert code == cli.EXIT_OK, err
    tw = T.build_tower(space, depth)
    want = [H.component_count(t.sample.pairwise(), t.threshold, tw.tol)
            for t in tw.terms]
    assert out.splitlines()[-1] == "components," + ",".join(map(str, want))


@pytest.mark.parametrize("argv, message", [
    (["--k-max", "-1"], "k_max=-1"),
    (["--tolerance", "-1"], "tolerance=-1"),
    (["--tolerance", "nan"], "tolerance=nan"),
])
def test_negative_k_max_and_tolerance_rejected(argv, message, capsys):
    code, out, err = run(["homology", "--space", "circle", "--depth", "2"]
                         + argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_verify_validation_failure(tmp_path, capsys):
    cfg = {"mode": "strict",
           "levels": [{"points": [[0.0]], "epsilon": 1.0},
                      {"points": [[0.0], [0.4]], "epsilon": 0.9}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["verify", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION


def test_verify_stops_at_a_broken_schedule(tmp_path, capsys):
    cfg = {"mode": "relaxed",
           "levels": [{"points": [[0.0]], "epsilon": 1.0},
                      {"points": [[0.0], [1.0]], "epsilon": 0.9}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["verify", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == ("error: level 2: eps=0.9 must be below 0.5 "
                   "(relaxed schedule)\n")
    assert out == ""


def test_verify_refuses_a_last_level_that_is_not_covered(tmp_path, capsys):
    cfg = {"mode": "relaxed",
           "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0, "gamma": 0.5},
                      {"points": [[0.0], [1.0]], "epsilon": 0.25,
                       "gamma": 0.5}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["verify", "--config", str(p)], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == ("error: level 2: gamma=0.5 >= eps=0.25: not an "
                   "epsilon-approximation\n")
    assert out == ""


def test_verify_refuses_two_squares_depth_7_for_seed_7(capsys):
    # the draw of level 7 leaves a gap of the frame wider than eps_7
    code, out, err = run(["verify", "--space", "two_squares", "--depth", "7",
                          "--seed", "7"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == ("error: level 7: gamma=0.000244872 >= eps=0.000244141: "
                   "not an epsilon-approximation\n")
    assert out == ""


def test_resource_cap_exit(capsys):
    code, out, err = run(["build", "--space", "circle", "--depth", "3",
                          "--max-elements", "50"], capsys)
    assert code == cli.EXIT_RESOURCE


def test_numbers_are_12_significant_digits():
    assert cli.fmt(3.141592653589793) == "3.14159265359"
    assert cli.fmt(0.1) == "0.1"


def _config(tmp_path, levels):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mode": "relaxed", "levels": levels}))
    return str(p)


def test_verify_thread_with_an_empty_level(tmp_path, capsys):
    # no point of level 1 lies in the open 1-ball of 1.5
    cfg = _config(tmp_path, [{"points": [[0.0]], "epsilon": 1.0},
                             {"points": [[0.0], [1.5]], "epsilon": 0.4}])
    code, out, err = run(["verify", "--config", cfg, "--thread", "1.5"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err == ""
    assert out.splitlines()[-6:] == [
        "ok thread compatible",
        "FAIL thread element-bounds",
        "FAIL thread convergence",
        "FAIL thread ball-bound",
        "FAIL thread inter-level",
        "thread convergence: inf"]


def test_verify_names_the_element_with_an_empty_image(tmp_path, capsys):
    cfg = _config(tmp_path, [{"points": [[0.0]], "epsilon": 1.0},
                             {"points": [[0.0], [1.5]], "epsilon": 0.4},
                             {"points": [[0.0], [1.5]], "epsilon": 0.19}])
    code, out, err = run(["verify", "--config", cfg], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out.splitlines()[1:] == [
        "FAIL bonding 2->1: worst diameter inf < 4, empty=1, capped=0; "
        "witness: level 2 element 1 [1], empty image",
        "ok bonding 3->2: worst diameter 0 < 1.6, empty=0, capped=0",
        "FAIL square at level 1: union diameter inf < 4; "
        "witness: level 3 element 1 [1], empty image"]


def test_verify_names_the_element_with_a_wide_image(capsys, monkeypatch):
    # levels 2 and 3 break the schedule, so their pair {0.5, 2.5} reaches
    # all of level 1, diameter 3 against the threshold 2.4; verify prints
    # one schedule line, as make_tower enforces the schedule
    ctx = M.euclidean(1)
    tw = T.Tower([M.MetricSample(ctx, [[0.0], [1.0], [2.0], [3.0]], epsilon=0.6),
                  M.MetricSample(ctx, [[0.5], [2.5]], epsilon=0.55),
                  M.MetricSample(ctx, [[0.5], [2.5]], epsilon=0.52)],
                 mode=T.RELAXED, enforce_schedule=False)
    monkeypatch.setattr(cli, "make_tower", lambda args: tw)
    code, out, err = run(["verify", "--space", "interval"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert out.splitlines()[1:] == [
        "FAIL bonding 2->1: worst diameter 3 < 2.4, empty=0, capped=1; "
        "witness: level 2 element 2 [0, 1], image diameter 3",
        "ok bonding 3->2: worst diameter 2 < 2.2, empty=0, capped=0",
        "FAIL square at level 1: union diameter 3 < 2.4; "
        "witness: level 3 element 2 [0, 1], image diameter 3"]


# -- input contracts: every config or flag value exits with a code and one
# line, or gives numbers ------------------------------------------------------

CONTRACT_CONFIGS = [
    {"mode": "relaxed", "max_dim": 2, "k_max": 1, "tolerance": 1e-9,
     "max_elements": 1000, "label": "fuzz", "context": {"kind": "euclidean"},
     "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0, "gamma": 0.5},
                {"points_file": "pts.csv", "epsilon": 0.4}]},
    {"mode": "strict",
     "context": {"kind": "explicit", "matrix_file": "m.csv"},
     "levels": [{"points": [0, 4], "epsilon": 1.6, "gamma": 0.8},
                {"points": [0, 2, 4, 6], "epsilon": 0.7}]},
]
DROP = object()
VALUES = [None, True, "x", "nope.csv", -1, 0, 2.5, 10 ** 400, math.nan,
          math.inf, [], {}, [[0.0, 1.0], [2.0]], [[[0.5]], [[1.5]]]]
# values argparse takes for each flag; it refuses the rest with its usage text
FLAG_VALUES = {
    "--depth": ["-1", "0", "1", "2"], "--seed": ["-5", "0", "3"],
    "--max-dim": ["-1", "0", "1", "3"], "--k-max": ["-1", "0", "2"],
    "--tolerance": ["-1", "nan", "inf", "1e400", "0.001"],
    "--max-elements": ["-5", "0", "3", "1000"],
}
COMMAND_FLAGS = {
    "homology": {"--field": ["q", "z", "p:2", "p:4", "p:x", "r"]},
    "verify": {"--thread": ["0.5", "x", "nan", "0.5,0.5", "0.5,"]},
    "build": {"--dot": ["0", "1", "2", "9"]},
}


def _paths(node, path=()):
    """Every key path below node, dict keys and list indices alike."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _edit(cfg, path, value):
    """cfg with the value at path replaced, or its key dropped; an edit
    whose path an earlier edit removed does nothing."""
    node = cfg
    try:
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            if isinstance(node, dict):
                del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def contract_runs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    if draw(st.integers(0, 3)):
        base = draw(st.sampled_from(CONTRACT_CONFIGS))
        cfg = copy.deepcopy(base)
        paths = list(_paths(base))
        for _ in range(draw(st.integers(1, 3))):
            _edit(cfg, draw(st.sampled_from(paths)),
                  draw(st.sampled_from(VALUES + [DROP])))
        source = None
    else:
        cfg, source = None, ["--space", draw(st.sampled_from(
            ["circle", "interval", "cantor"])), "--depth", "2"]
    table = {**FLAG_VALUES, **COMMAND_FLAGS[command]}
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(table)), max_size=2)):
        flags += [flag, draw(st.sampled_from(table[flag]))]
    if draw(st.booleans()):
        flags.append("--relaxed")
    return command, cfg, source, flags


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contracts")
    (d / "pts.csv").write_text("0\n0.5\n1\n")
    write_circle_matrix(d / "m.csv")
    return d


@settings(max_examples=300, deadline=None)
@given(run_spec=contract_runs())
def test_bad_values_exit_with_one_line(run_spec, contract_dir):
    """A config with one to three values replaced or dropped, or bad flag
    values: the exit code is documented, nothing escapes cli.main, and a
    nonzero exit writes one line "error: ..." -- except verify, which exits
    2 with FAIL lines on stdout when a certificate fails."""
    command, cfg, source, flags = run_spec
    if cfg is not None:
        path = contract_dir / "cfg.json"
        path.write_text(json.dumps(cfg))
        source = ["--config", str(path)]
    argv = [command] + source + flags
    if command == "build":
        argv += ["--out", str(contract_dir / "t.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if code == 2 and not err:
        assert command == "verify" and "\nFAIL " in "\n" + out, argv
    elif code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
