import ast
import hashlib
import json
import math
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitchaos
import splitchaos.cli
from splitchaos.chaos import MAX_RECORDED, PointCloud, RunConfig, Variant
from splitchaos.cli import main
from splitchaos.ifs import HyperbolicIFS
from splitchaos.numbers import ZERO, Hyperbolic, embed
from splitchaos.probability import Mode
from splitchaos.raster import (
    MAX_RESOLUTION,
    DegenerateExtent,
    rasterize,
    write_csv,
    write_ppm,
)
from splitchaos.specfile import (
    ParseError,
    ValidationError,
    bundled_spec,
    load_spec,
    parse_spec,
)

SIERPINSKI_PATH = str(resources.files("splitchaos") / "data" / "sierpinski.json")
LOPSIDED_PATH = str(resources.files("splitchaos") / "data" / "sierpinski_hpd2.json")

LN3 = 1.0986122886681098


def _tiny_cloud(e1, e2):
    cfg = RunConfig(Variant.HYPERBOLIC, 0, len(e1), burn_in=0)
    return PointCloud(
        np.asarray(e1, dtype=np.float64),
        np.asarray(e2, dtype=np.float64),
        cfg,
        np.asarray([len(e1)], dtype=np.int64),
    )


# -- spec files ----------------------------------------------------------------


def test_bundled_sierpinski():
    ifs = bundled_spec("sierpinski")
    assert len(ifs.maps) == 3
    for f in ifs.maps:
        assert f.kappa == embed(0.5)
    assert ifs.maps[0].beta == ZERO
    assert ifs.maps[1].beta == Hyperbolic(0.25, 0.5)
    assert ifs.maps[2].beta == Hyperbolic(0.5, 0.0)
    assert ifs.dist.mode is Mode.FULL


def test_bundled_lopsided():
    ifs = bundled_spec("sierpinski_hpd2")
    assert ifs.dist.probs == (
        Hyperbolic(0.1, 0.25),
        Hyperbolic(0.3, 0.2),
        Hyperbolic(0.6, 0.55),
    )
    with pytest.raises(ValueError):
        bundled_spec("nonexistent")


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
BAD_UTF8 = b'{"maps": [\xff]}'
# A literal of more digits than int() converts by default (4,300).
LONG_LITERAL = b'{"maps": [' + b"1" * 5000 + b"]}"


def test_parse_rejects_malformed_json():
    for text in (b"{not json", DEEP_JSON, BAD_UTF8, LONG_LITERAL):
        with pytest.raises(ParseError):
            parse_spec(text)


def test_malformed_spec_bytes_exit_one_without_traceback(tmp_path):
    for text in (DEEP_JSON, BAD_UTF8, LONG_LITERAL):
        spec = tmp_path / "bad.json"
        spec.write_bytes(text)
        proc = subprocess.run(
            [sys.executable, "-m", "splitchaos", "entropy", "--spec", str(spec)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: malformed JSON")
        assert proc.stderr.count("\n") == 1


def _spec_doc(**overrides):
    doc = {
        "maps": [
            {"kappa": {"e1": 0.5, "e2": 0.5}, "beta": {"e1": 0.0, "e2": 0.0}},
            {"kappa": {"e1": 0.5, "e2": 0.5}, "beta": {"e1": 0.5, "e2": 0.5}},
        ],
        "probs": [{"e1": 0.5, "e2": 0.5}, {"e1": 0.5, "e2": 0.5}],
    }
    doc.update(overrides)
    return doc


def test_parse_validates_probs_sum():
    doc = _spec_doc(probs=[{"e1": 0.5, "e2": 0.5}, {"e1": 0.4, "e2": 0.4}])
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(doc))
    assert "probs" in str(exc_info.value)


def test_parse_validates_contraction_factor():
    doc = _spec_doc()
    doc["maps"][1]["kappa"]["e1"] = 1.0
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(doc))
    assert "maps[1]" in str(exc_info.value)


def test_parse_validates_shape():
    with pytest.raises(ValidationError):
        parse_spec(json.dumps(_spec_doc(maps=[])))
    with pytest.raises(ValidationError):
        parse_spec(json.dumps({"probs": [{"e1": 1.0, "e2": 1.0}]}))
    doc = _spec_doc()
    del doc["maps"][0]["beta"]
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(doc))
    assert "maps[0].beta" in str(exc_info.value)
    doc = _spec_doc(probs=[{"e1": 1.0, "e2": 1.0}])
    with pytest.raises(ValidationError):
        parse_spec(json.dumps(doc))


def _unbounded_doc():
    doc = _spec_doc()
    doc["maps"][1] = {"kappa": {"e1": 0.5, "e2": 0.9}, "beta": {"e1": 0.5, "e2": 1e308}}
    return doc


def test_parse_rejects_unbounded_attractor():
    # Each number is finite, but the e2 attractor bound 1e308/(1-0.9) is not.
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(_unbounded_doc()))
    assert "maps[1]" in str(exc_info.value)


def test_generate_rejects_unbounded_attractor(tmp_path, capsys):
    spec = tmp_path / "far.json"
    spec.write_text(json.dumps(_unbounded_doc()))
    csv_path = tmp_path / "far.csv"
    code = main(
        [
            "generate",
            "--spec", str(spec),
            "--variant", "hyperbolic",
            "--iterations", "1000",
            "--seed", "1",
            "--csv", str(csv_path),
        ]
    )
    assert code == 1
    assert "maps[1]" in capsys.readouterr().err
    assert not csv_path.exists()


def _beyond_float_doc():
    # An integer literal within int()'s digit limit but beyond the float range.
    doc = _spec_doc()
    doc["maps"][1]["beta"]["e2"] = 10**400
    return doc


def test_parse_rejects_non_numbers():
    doc = _spec_doc()
    doc["probs"][0]["e1"] = "0.5"
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(doc))
    assert "probs[0].e1" in str(exc_info.value)
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(_beyond_float_doc()))
    assert "maps[1].beta.e2" in str(exc_info.value)
    assert "0" * 400 not in str(exc_info.value)
    doc = _spec_doc()
    doc["maps"][0]["kappa"]["e1"] = [0.5] * 100_000
    with pytest.raises(ValidationError) as exc_info:
        parse_spec(json.dumps(doc))
    assert "maps[0].kappa.e1" in str(exc_info.value)
    assert len(str(exc_info.value)) < 200


def test_spec_integer_beyond_float_exits_one_without_traceback(tmp_path):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(_beyond_float_doc()))
    proc = subprocess.run(
        [sys.executable, "-m", "splitchaos", "entropy", "--spec", str(spec)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: maps[1].beta.e2")
    assert proc.stderr.count("\n") == 1


# Every number of the two-map document of _spec_doc, by its path of keys.
SPEC_LEAVES = [
    ("maps", i, field, part) for i in (0, 1) for field in ("kappa", "beta") for part in ("e1", "e2")
] + [("probs", i, part) for i in (0, 1) for part in ("e1", "e2")]

JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
)


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(SPEC_LEAVES), value=JSON_JUNK)
def test_parse_spec_raises_only_its_own_errors(leaf, value):
    doc = _spec_doc()
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    try:
        assert isinstance(parse_spec(json.dumps(doc)), HyperbolicIFS)
    except (ParseError, ValidationError):
        pass


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_spec_doc()))
    ifs = load_spec(path)
    assert len(ifs.maps) == 2


# -- rasterization ---------------------------------------------------------------


def test_rasterize_single_point_at_origin():
    grid = rasterize(_tiny_cloud([0.0], [0.0]), 64, (ZERO, embed(1.0)))
    assert grid.counts[0, 0] == 1
    assert grid.counts.sum() == 1
    assert grid.overflow == 0


def test_rasterize_opposite_corners():
    eps = 1e-9
    grid = rasterize(_tiny_cloud([0.0, 1.0 - eps], [0.0, 1.0 - eps]), 64, (ZERO, embed(1.0)))
    assert grid.counts[0, 0] == 1
    assert grid.counts[63, 63] == 1


def test_rasterize_far_edge_belongs_to_last_cell():
    grid = rasterize(_tiny_cloud([1.0], [1.0]), 8, (ZERO, embed(1.0)))
    assert grid.counts[7, 7] == 1
    assert grid.overflow == 0


def test_rasterize_counts_overflow():
    grid = rasterize(_tiny_cloud([2.0, 0.5], [0.5, 0.5]), 8, (ZERO, embed(1.0)))
    assert grid.overflow == 1
    assert grid.counts.sum() == 1


def test_rasterize_validates_arguments():
    cloud = _tiny_cloud([0.0], [0.0])
    with pytest.raises(ValueError):
        rasterize(cloud, 1, (ZERO, embed(1.0)))
    with pytest.raises(DegenerateExtent):
        rasterize(cloud, 8, (ZERO, Hyperbolic(0.0, 1.0)))


def test_write_ppm_single_occupied_cell(tmp_path):
    grid = rasterize(_tiny_cloud([0.9] * 9, [0.1] * 9), 2, (ZERO, embed(1.0)))
    assert grid.counts[0, 1] == 9
    path = tmp_path / "img.ppm"
    with open(path, "wb") as f:
        write_ppm(grid, f)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    pixels = data[len(b"P6\n2 2\n255\n"):]
    assert len(pixels) == 12
    # bottom row is written last; its right cell holds the only mass
    assert pixels == bytes([0] * 9 + [255] * 3)


def test_write_ppm_all_black_when_empty(tmp_path):
    grid = rasterize(_tiny_cloud([2.0], [2.0]), 4, (ZERO, embed(1.0)))
    path = tmp_path / "img.ppm"
    with open(path, "wb") as f:
        write_ppm(grid, f)
    data = path.read_bytes()
    assert data == b"P6\n4 4\n255\n" + bytes(48)


def test_write_csv_single_point(tmp_path):
    path = tmp_path / "pts.csv"
    with open(path, "wb") as f:
        write_csv(_tiny_cloud([0.5], [0.5]), f)
    assert path.read_bytes() == b"index,e1,e2\n0,0.5,0.5\n"


def _csv_rows(data):
    """The (index, e1, e2) rows of write_csv output, parsed with int and float."""
    lines = data.decode("ascii").split("\n")
    assert lines[0] == "index,e1,e2" and lines[-1] == ""
    return [(int(i), float(a), float(b)) for i, a, b in (line.split(",") for line in lines[1:-1])]


def test_csv_round_trip():
    cloud = _tiny_cloud([0.1, 0.25, 1.0 / 3.0], [0.9, 0.5, 2.0 / 3.0])
    import io

    buf = io.BytesIO()
    write_csv(cloud, buf)
    rows = _csv_rows(buf.getvalue())
    assert [i for i, _, _ in rows] == [0, 1, 2]
    assert [Hyperbolic(a, b) for _, a, b in rows] == [cloud[i] for i in range(3)]


# -- command line -----------------------------------------------------------------


def test_generate_is_deterministic(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        img_path = tmp_path / f"{tag}.ppm"
        code = main(
            [
                "generate",
                "--spec", SIERPINSKI_PATH,
                "--variant", "hyperbolic",
                "--iterations", "20000",
                "--seed", "9",
                "--csv", str(csv_path),
                "--image", str(img_path),
                "--resolution", "64",
            ]
        )
        assert code == 0
        outputs.append((csv_path.read_bytes(), img_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_generate_golden_image(tmp_path):
    img_path = tmp_path / "golden.ppm"
    code = main(
        [
            "generate",
            "--spec", SIERPINSKI_PATH,
            "--variant", "hyperbolic",
            "--iterations", "100000",
            "--seed", "42",
            "--image", str(img_path),
            "--resolution", "128",
        ]
    )
    assert code == 0
    digest = hashlib.sha256(img_path.read_bytes()).hexdigest()
    assert digest == "1e13d586b9fdf853927d950e81371979e5aafa2a6499ffd3c81a98777bc50a3e"


def test_generate_d_chaos_csv(tmp_path):
    csv_path = tmp_path / "d.csv"
    code = main(
        [
            "generate",
            "--spec", LOPSIDED_PATH,
            "--variant", "d-chaos",
            "--iterations", "5000",
            "--seed", "3",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    rows = _csv_rows(csv_path.read_bytes())
    assert len(rows) == 4900  # default burn-in 100


def test_generate_with_custom_extent(tmp_path):
    img = tmp_path / "zoom.ppm"
    code = main(
        [
            "generate",
            "--spec", SIERPINSKI_PATH,
            "--variant", "hyperbolic",
            "--iterations", "2000",
            "--seed", "5",
            "--image", str(img),
            "--resolution", "32",
            "--extent", "0,0,0.5,0.5",
        ]
    )
    assert code == 0
    assert img.read_bytes().startswith(b"P6\n32 32\n255\n")


def test_generate_rejects_bad_extent(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--spec", SIERPINSKI_PATH,
            "--variant", "hyperbolic",
            "--iterations", "2000",
            "--seed", "5",
            "--image", str(tmp_path / "x.ppm"),
            "--extent", "0,0,1",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_spec_doc(probs=[{"e1": 0.4, "e2": 0.4}] * 2)))
    code = main(
        [
            "generate",
            "--spec", str(bad),
            "--variant", "classical",
            "--iterations", "1000",
            "--seed", "1",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_spec_file_is_io_error(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--spec", str(tmp_path / "missing.json"),
            "--variant", "classical",
            "--iterations", "1000",
            "--seed", "1",
        ]
    )
    assert code == 2
    assert "io error:" in capsys.readouterr().err


def test_entropy_text_output(capsys):
    assert main(["entropy", "--spec", SIERPINSKI_PATH]) == 0
    out = capsys.readouterr().out
    assert "h_strong" in out and "1.0986122886681" in out
    assert out.count("holds") == 2


def test_entropy_json_output(capsys):
    assert main(["entropy", "--spec", SIERPINSKI_PATH, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "h_strong_e1", "h_strong_e2", "h_weak_e1", "h_weak_e2",
        "h_q", "h_k_e1", "h_k_e2", "ineq_q", "ineq_k",
    }
    assert abs(doc["h_strong_e1"] - LN3) < 1e-12
    assert abs(doc["h_q"] - math.log(9.0)) < 1e-12
    assert doc["ineq_q"] is True and doc["ineq_k"] is True


def test_entropy_bits_flag(capsys):
    assert main(["entropy", "--spec", SIERPINSKI_PATH, "--json", "--bits"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["h_q"] - math.log(9.0) / math.log(2.0)) < 1e-12
    assert abs(doc["h_strong_e1"] - math.log2(3.0)) < 1e-9


# sha256 of the entropy report's stdout for each bundled system and output form.
ENTROPY_GOLDEN = {
    ("sierpinski", ()): "c8724de5b1bf9b546488cb0b27cf8a8993f9a49d609cb71203e20be5bfa17d6c",
    ("sierpinski", ("--bits",)): "9081af090ce4bad6b410c3ce2562b5d23189214aaf6a2ba7f7bdc97543fdab09",
    ("sierpinski", ("--json",)): "2c1c2e4d49969d27651ac5fd093f38ee67364d343f115df935760b49343517c3",
    ("sierpinski", ("--json", "--bits")): "2faa6d31ea27c6da0f11fe07078045aa76303755cf349d31af8d7e1daee4bead",
    ("sierpinski_hpd2", ()): "8659d8b871b680c1f408d570aa8c12f554f85a96e37612cc5b68837303266cef",
    ("sierpinski_hpd2", ("--bits",)): "e478e1544d0ca23be09917811d3d18e49e56b58416d45a0c334eb948fb41b50e",
    ("sierpinski_hpd2", ("--json",)): "37cd364f73281409cb17bf05df47e462df9afaa7c306d7f5cfcb87dee7eecec3",
    ("sierpinski_hpd2", ("--json", "--bits")): "8966844878dfb79da4f70e4b359599c8f30166d26e5460a816313c88bd7314a8",
}


@pytest.mark.parametrize("name, flags", sorted(ENTROPY_GOLDEN))
def test_entropy_golden_output(name, flags, capsys):
    spec = str(resources.files("splitchaos") / "data" / f"{name}.json")
    assert main(["entropy", "--spec", spec, *flags]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == ENTROPY_GOLDEN[name, flags]


def test_entropy_accepts_weights_that_validate(tmp_path, capsys):
    # The pair weights sum to s^2 = 0.9999999986, beyond SUM_TOL of 1 though s is within it.
    maps = [(0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.5, 0.0), (0.5, 0.5, 0.0, 0.5)]
    spec = _write_spec(tmp_path / "thirds.json", maps, [(0.3333333331, 0.3333333331)] * 3)
    assert main(["entropy", "--spec", spec]) == 0
    assert capsys.readouterr().out.count("holds") == 2


def test_verify_passes_on_bundled_system(capsys):
    code = main(
        ["verify", "--spec", SIERPINSKI_PATH, "--iterations", "100000", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 3
    for name in ("attractor-membership", "tally-convergence", "decoupling"):
        assert name in out


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["generate", "--variant", "classical"])
    assert exc_info.value.code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splitchaos", "entropy", "--spec", SIERPINSKI_PATH],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "h_strong" in proc.stdout


# -- bounds, lazy scipy, names the traced benchmark run patches ----------------


def _generate_argv(*extra):
    return [
        "generate",
        "--spec", SIERPINSKI_PATH,
        "--variant", "hyperbolic",
        "--seed", "1",
        *extra,
    ]


def test_generate_rejects_resolution_above_bound(tmp_path, capsys):
    image = tmp_path / "big.ppm"
    argv = _generate_argv(
        "--iterations", "1000",
        "--image", str(image),
        "--resolution", str(MAX_RESOLUTION + 1),
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resolution") and err.count("\n") == 1
    assert not image.exists()
    with pytest.raises(ValueError):
        rasterize(_tiny_cloud([0.0], [0.0]), MAX_RESOLUTION + 1, (ZERO, embed(1.0)))


@pytest.mark.parametrize("extent", ["0,0,0,1", "0,1,1,0", "-1e308,0,1e308,1"])
def test_generate_rejects_degenerate_extent_before_the_game(tmp_path, capsys, monkeypatch, extent):
    def no_game(*_):
        raise AssertionError("the game ran")

    monkeypatch.setattr(splitchaos.cli, "run", no_game)
    csv = tmp_path / "y.csv"
    argv = _generate_argv(
        "--iterations", "1000",
        "--csv", str(csv),
        "--image", str(tmp_path / "x.ppm"),
        f"--extent={extent}",
    )
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: extent widths") and err.count("\n") == 1
    assert not csv.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--csv", "x.csv", "--extent", "0,0,1"], "error: extent must be"),
        ([], "error: nothing to write"),
    ],
)
def test_generate_checks_its_flags_before_the_game(tmp_path, capsys, monkeypatch, flags, message):
    def no_game(*_):
        raise AssertionError("the game ran")

    monkeypatch.setattr(splitchaos.cli, "run", no_game)
    monkeypatch.chdir(tmp_path)
    assert main(_generate_argv("--iterations", "1000", *flags)) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_run_config_bounds_recorded_points():
    # The bound itself is accepted; nothing is allocated by RunConfig.
    RunConfig(Variant.HYPERBOLIC, 1, MAX_RECORDED + 100, burn_in=100)
    with pytest.raises(ValueError):
        RunConfig(Variant.HYPERBOLIC, 1, MAX_RECORDED + 101, burn_in=100)


def test_generate_rejects_recorded_points_above_bound(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    argv = _generate_argv("--iterations", str(MAX_RECORDED + 101), "--csv", str(csv_path))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: iterations - burn_in") and err.count("\n") == 1
    assert not csv_path.exists()


def test_verify_rejects_oracle_beyond_float_range(tmp_path):
    # A valid system whose attractor reaches 2e300: its 2^-40 snapping keys overflow.
    doc = _spec_doc()
    doc["maps"][1]["beta"]["e1"] = 1e300
    spec = tmp_path / "far.json"
    spec.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "splitchaos", "verify", "--spec", str(spec),
         "--iterations", "1000", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: point set") and proc.stderr.count("\n") == 1


def _write_spec(path, maps, probs):
    path.write_text(json.dumps({
        "maps": [
            {"kappa": {"e1": k1, "e2": k2}, "beta": {"e1": b1, "e2": b2}}
            for k1, k2, b1, b2 in maps
        ],
        "probs": [{"e1": p1, "e2": p2} for p1, p2 in probs],
    }))
    return str(path)


def test_verify_certifies_five_map_system(tmp_path, capsys):
    # 5^12 sample points would not fit; the addresses certify every point instead.
    maps = [(0.3, 0.3, 0.7 * (i % 3) / 2, 0.7 * (i // 3)) for i in range(5)]
    probs = [(0.1, 0.3), (0.15, 0.25), (0.2, 0.2), (0.25, 0.15), (0.3, 0.1)]
    spec = _write_spec(tmp_path / "five.json", maps, probs)
    code = main(["verify", "--spec", spec, "--iterations", "20000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 3


def _sixteen_map_spec(path):
    # Factors up to 0.9: at depth 12 an address leaves most points open.
    maps = []
    for i in range(16):
        k = 0.5 + 0.4 * i / 15
        maps.append((k, k, (1 - k) * (i % 4) / 3, (1 - k) * (i // 4) / 3))
    return _write_spec(path, maps, [(1 / 16, 1 / 16)] * 16)


def _kappa_07_spec(path):
    # A 0.7 factor is beyond what a depth-12 address certifies (0.7^12 ~ 0.014).
    maps = [(0.7, 0.6, 0.0, 0.0), (0.7, 0.6, 0.3, 0.0), (0.7, 0.6, 0.15, 0.4)]
    return _write_spec(path, maps, [(1 / 3, 1 / 3)] * 3)


def test_verify_certifies_sixteen_map_system(tmp_path, capsys):
    spec = _sixteen_map_spec(tmp_path / "wide.json")
    code = main(["verify", "--spec", spec, "--iterations", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("PASS") == 3
    assert int(re.search(r"depth-(\d+) sample", out)[1]) > 12


@pytest.mark.parametrize("seed", ["1", "7"])
def test_verify_passes_kappa_07_system(tmp_path, capsys, seed):
    spec = _kappa_07_spec(tmp_path / "k07.json")
    code = main(["verify", "--spec", spec, "--iterations", "20000", "--seed", seed])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("PASS attractor-membership: 0.00e+00 of points beyond 2^-10 of the depth-23")
    assert out.count("PASS") == 3


def test_verify_never_loads_scipy(tmp_path):
    code = (
        "import sys, splitchaos.cli\n"
        "for spec in sys.argv[1:]:\n"
        "    argv = ['verify', '--spec', spec, '--iterations', '2000', '--seed', '1']\n"
        "    assert splitchaos.cli.main(argv) == 0, spec\n"
        "print('scipy' in sys.modules)\n"
    )
    specs = [
        SIERPINSKI_PATH,
        _kappa_07_spec(tmp_path / "k07.json"),
        _sixteen_map_spec(tmp_path / "wide.json"),
    ]
    proc = subprocess.run([sys.executable, "-c", code, *specs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_verify_certified_run_does_not_load_scipy():
    code = (
        "import sys, splitchaos.cli\n"
        "assert splitchaos.cli.main(sys.argv[1:]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    argv = ["verify", "--spec", SIERPINSKI_PATH, "--iterations", "2000", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_generate_and_entropy_do_not_load_scipy(tmp_path):
    code = (
        "import sys, splitchaos.cli\n"
        "a = sys.argv[1:]\n"
        "assert splitchaos.cli.main(['generate', *a]) == 0\n"
        "assert splitchaos.cli.main(['entropy', '--spec', a[1]]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    argv = _generate_argv(
        "--iterations", "2000",
        "--image", str(tmp_path / "x.ppm"),
        "--csv", str(tmp_path / "x.csv"),
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv[1:]], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_names_the_traced_benchmark_run_patches_exist():
    # bench/traced.py replaces these module attributes by name.
    from splitchaos import chaos, checks, cli

    patched = {
        chaos: ["Xoshiro256PP"],
        checks: [
            "Xoshiro256PP",
            "run_hyperbolic",
            "run_d_chaos",
            "replay_component_game",
            "iterate_hutchinson",
            "nearest_componentwise",
            "attractor_membership",
            "tally_convergence",
            "decoupling",
        ],
        cli: ["run", "load_spec", "write_csv", "rasterize", "write_ppm", "run_all"],
    }
    for module, names in patched.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_every_exported_name_resolves():
    for name in splitchaos.__all__:
        assert hasattr(splitchaos, name), name
    assert len(set(splitchaos.__all__)) == len(splitchaos.__all__)


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(splitchaos.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("splitchaos")
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} imports {private}"
