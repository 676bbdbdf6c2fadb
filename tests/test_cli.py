import json
import math
import os
import re

import pytest

from fintop import cli
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
])
def test_depth_and_seed_are_checked_first(command, argv, message, tmp_path,
                                          capsys):
    out_dir = tmp_path / "out"
    code, out, err = run([command, "--space", "two_squares", "--depth", "1",
                          "--out", str(out_dir)] + argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def test_build_dot_export(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, out, err = run(["build", "--space", "circle", "--depth", "2",
                          "--out", str(out_path), "--dot", "2"], capsys)
    assert code == cli.EXIT_OK
    dot = (tmp_path / "t_level2.dot").read_text()
    assert dot.startswith("digraph")


def test_build_dot_cap(tmp_path, capsys):
    # level 4 has 2048 elements, above the 500-element DOT cap
    code, out, err = run(["build", "--space", "circle", "--depth", "4",
                          "--out", str(tmp_path / "t.json"), "--dot", "4"],
                         capsys)
    assert code == cli.EXIT_RESOURCE


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


@pytest.mark.parametrize("field", ["p:x", "p:", "p:1", "p:4", "p:-3"])
def test_homology_field_must_be_prime(field, capsys, monkeypatch):
    def no_tower(args):
        pytest.fail("the tower was built before the field was checked")

    monkeypatch.setattr(cli, "make_tower", no_tower)
    code, out, err = run(["homology", "--space", "circle", "--depth", "2",
                          "--field", field], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "prime" in err


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


def test_config_matrix_file_is_relative_to_the_config(tmp_path, monkeypatch,
                                                      capsys):
    # geodesic distances of 8 equispaced points on the circle
    step = 2 * math.pi / 8
    rows = [",".join(repr(step * min(abs(i - j), 8 - abs(i - j)))
                     for j in range(8)) for i in range(8)]
    confdir = tmp_path / "conf"
    confdir.mkdir()
    (confdir / "m.csv").write_text("\n".join(rows) + "\n")
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


@pytest.mark.parametrize("key", ["max_dim", "k_max", "tolerance",
                                 "max_elements", "epsilon"])
def test_config_value_must_be_a_number(key, tmp_path, capsys):
    bad = {"x": "is not a number"}
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


def test_verify_thread_uses_the_tower_tolerance(tmp_path, capsys, monkeypatch):
    cfg = {"mode": "relaxed", "tolerance": 0.001,
           "levels": [{"points": [[0.0], [1.0]], "epsilon": 1.0},
                      {"points": [[0.0], [0.5], [1.0]], "epsilon": 0.4}]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    seen = []
    for name in ("canonical_thread", "verify_thread"):
        def spy(*args, _real=getattr(Lim, name), **kwargs):
            seen.append(kwargs["tol"])
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
], ids=["truncated", "not-an-object", "missing"])
def test_config_file_must_be_a_json_object(text, message, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    if text is not None:
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


def test_resource_cap_exit(capsys):
    code, out, err = run(["build", "--space", "circle", "--depth", "3",
                          "--max-elements", "50"], capsys)
    assert code == cli.EXIT_RESOURCE


def test_numbers_are_12_significant_digits():
    assert cli.fmt(3.141592653589793) == "3.14159265359"
    assert cli.fmt(0.1) == "0.1"
