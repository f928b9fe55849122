import argparse
import contextlib
import io
import json
import random
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ideal_sheaf_complex, koszul_point_complex, koszul_sign_flip_json
from prodcoh import bott, cech, cli, minmodel
from prodcoh.coxring import LineBundleComplex, MultiHomogPoly, free_complex
from prodcoh.lattice import ProductSpace, Window
from prodcoh.linalg import default_field
from test_lattice import REFERENCE_FULL_GRID, REFERENCE_INTERMEDIATE_GRID
from test_minmodel import (block_pairs, break_transfer, last_level, named_classes, no_classes,
                           per_twist_only, series_complex, unpack)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_complex(tmp_path, C, name="complex.json"):
    """Write the complex C, or a complex's JSON object, to tmp_path/name."""
    path = tmp_path / name
    path.write_text(json.dumps(C if isinstance(C, dict) else C.to_json()))
    return str(path)


def test_regions_full(capsys):
    code, out, _ = run(
        capsys,
        ["regions", "--space", "2,3", "--window", "-5:1,-5:2", "--mode", "full"],
    )
    assert code == 0
    assert out.strip("\n") == REFERENCE_FULL_GRID


def test_regions_intermediate(capsys):
    code, out, _ = run(
        capsys,
        ["regions", "--space", "2,3", "--window", "-5:1,-5:2",
         "--mode", "intermediate"],
    )
    assert code == 0
    assert out.strip("\n") == REFERENCE_INTERMEDIATE_GRID


def test_regions_safe_band(capsys):
    code, out, _ = run(
        capsys,
        ["regions", "--space", "1,1", "--d", "1,1", "--window", "-4:4,-4:4",
         "--mode", "safe"],
    )
    assert code == 0
    rows = out.strip("\n").split("\n")
    # Row for a2 (descending), column for a1: the |a1-a2| <= 1 band.
    for r, row in enumerate(rows):
        a2 = 4 - r
        for c, ch in enumerate(row):
            a1 = -4 + c
            assert (ch == "#") == (abs(a1 - a2) <= 1)


def test_regions_safe_needs_d(capsys):
    code, _, err = run(
        capsys, ["regions", "--space", "1,1", "--window", "0:1,0:1", "--mode", "safe"]
    )
    assert code == 2 and "--d" in err


def test_regions_json_deterministic(capsys, tmp_path):
    argv = ["regions", "--space", "1,1", "--window", "-2:2,-2:2",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["mode"] == "full"


def test_regions_slice_three_factors(capsys):
    code, _, err = run(
        capsys,
        ["regions", "--space", "1,1,1", "--window", "-2:2,-2:2,-2:2"],
    )
    assert code == 2 and "--slice" in err
    code, out, _ = run(
        capsys,
        ["regions", "--space", "1,1,1", "--window", "-2:2,-2:2,-2:2",
         "--slice", "0"],
    )
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    pytest.param("--space 1,1,1 --window -1:1,-1:1,-1:1 --slice 5",
                 "--slice puts a3 = 5 outside the window's -1:1", id="outside"),
    pytest.param("--space 1,1,1,2 --window -1:1,-1:1,-1:1,0:3 --slice 0,-1",
                 "--slice puts a4 = -1 outside the window's 0:3", id="outside-a4"),
    pytest.param("--space 1,1 --window -1:1,-1:1 --slice 5,6,7",
                 "--slice does not apply to a space of two factors", id="two-factors"),
])
def test_regions_slice_outside_the_window_is_refused(capsys, argv, message):
    # Such a slice drew an all-'.' grid, or was ignored, and exited 0.
    for mode in ("full", "intermediate"):
        code, out, err = run(capsys, ["regions", "--mode", mode] + argv.split())
        assert (code, out, err) == (2, "", "error: %s\n" % message)
    inside = ["regions", "--space", "1,1,1", "--window", "-1:1,-1:1,5:5", "--slice", "5"]
    code, out, _ = run(capsys, inside)
    assert code == 0 and "#" in out


@st.composite
def region_cases(draw):
    """A space of two or three factors, a window, an in-window slice and a mode."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    lo = draw(st.tuples(*[st.integers(-6, 2)] * len(dims)))
    hi = tuple(x + draw(st.integers(0, 4)) for x in lo)
    fixed = tuple(draw(st.integers(l, h)) for l, h in zip(lo[2:], hi[2:]))
    return ProductSpace(tuple(dims)), Window(lo, hi), fixed, draw(
        st.sampled_from(["full", "intermediate"]))


@settings(max_examples=60, deadline=None)
@given(region_cases())
def test_regions_cells_equal_a_line_bundle_scan(case):
    space, window, fixed, mode = case
    argv = ["regions", "--space", ",".join(map(str, space.factor_dims)), "--mode", mode,
            "--window", ",".join("%d:%d" % w for w in zip(window.lo, window.hi)),
            "--format", "json"]
    if fixed:
        argv += ["--slice", ",".join(map(str, fixed))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0

    def member(h):
        return any(h) if mode == "full" else any(h[1:space.m])

    want = sorted(list(a[:2]) for a in window.twists()
                  if a[2:] == fixed and member(bott.line_bundle_h(space, a)))
    got = json.loads(out.getvalue())
    assert got["cells"] == want
    assert got.get("slice") == (list(fixed) if fixed else None)


@pytest.mark.parametrize("mode", [["--mode", "full"], ["--mode", "safe", "--d", "1,1,1"]])
def test_regions_slice_computes_its_slice_alone(capsys, monkeypatch, mode):
    # The 61^3 window sliced at a3 = 0 and the 61^2 window of that slice
    # print the same bytes in every format; each computes 61 x 61 twists.
    sizes = []
    kunneth_window, safe_region = bott.kunneth_window, cli.safe_region
    monkeypatch.setattr(bott, "kunneth_window", lambda space, window, entries: sizes.append(
        len(list(window.twists()))) or kunneth_window(space, window, entries))
    monkeypatch.setattr(cli, "safe_region", lambda space, d, window: sizes.append(
        len(list(window.twists()))) or safe_region(space, d, window))
    for fmt in ("ascii", "json", "csv"):
        outs = []
        for window in ("-30:30,-30:30,-30:30", "-30:30,-30:30,0:0"):
            code, out, _ = run(capsys, ["regions", "--space", "1,1,1", "--window", window,
                                        "--slice", "0", "--format", fmt] + mode)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1], fmt
    assert sizes == [61 * 61] * 6


def test_sliced_regions_output_names_its_slice(capsys):
    base = ["regions", "--space", "1,1,1,2", "--window", "-1:1,-1:1,-1:1,0:2"]
    outs = {}
    for fixed in ("0,1", "1,1", "0,2"):
        code, out, _ = run(capsys, base + ["--slice", fixed, "--format", "json"])
        assert code == 0 and json.loads(out)["slice"] == [int(x) for x in fixed.split(",")]
        outs[fixed] = out
        code, out, _ = run(capsys, base + ["--slice", fixed, "--format", "csv"])
        lines = out.splitlines()
        assert code == 0 and lines[0] == "a1,a2,a3,a4,member" and len(lines) == 10
        assert all(line.split(",")[2:4] == fixed.split(",") for line in lines[1:])
    assert len(set(outs.values())) == 3


def test_cohomology_single_twist(capsys, tmp_path):
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, out, _ = run(
        capsys,
        ["cohomology", "--input", path, "--twist", "-2,-2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"twist": [-2, -2], "h": [0, 0, 1]}


def test_main_takes_any_iterable_argv(capsys, tmp_path):
    # main reads the command name before parsing, so a generator must not be
    # consumed by that first look.
    path = write_complex(tmp_path, koszul_point_complex())
    argv = ["cohomology", "--input", path, "--twist", "-1,1", "--format", "json"]
    runs = [run(capsys, given) for given in (argv, tuple(argv), (x for x in argv))]
    assert runs[0][0] == 0 and runs[0][1] and runs == [runs[0]] * 3


def test_cohomology_window_csv(capsys, tmp_path):
    path = write_complex(tmp_path, koszul_point_complex())
    argv = ["cohomology", "--input", path, "--window", "-2:2,-2:2",
            "--format", "csv"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "a1,a2,i,dim,status"
    for line in lines[1:]:
        a1, a2, i, dim, status = line.split(",")
        assert dim == ("1" if i == "0" else "0")
        assert status == "computed"
    # Byte-for-byte reproducibility.
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("twist", ["1,1", "-2,0", "3,-4"])
@pytest.mark.parametrize("field", [[], ["--field", "q"]])
def test_cohomology_twist_csv_is_the_one_twist_window(capsys, tmp_path, twist, field):
    # --twist a --format csv prints the table of the window a1:a1,...,at:at.
    window = ",".join("%s:%s" % (x, x) for x in twist.split(","))
    for C in (koszul_point_complex(), ideal_sheaf_complex()):
        path = write_complex(tmp_path, C)
        base = ["cohomology", "--input", path, "--format", "csv"] + field
        got = run(capsys, base + ["--twist", twist])
        assert got == run(capsys, base + ["--window", window])
        assert got[0] == 0 and got[1].startswith("a1,a2,i,dim,status\n")


@pytest.mark.parametrize("flag, message", [
    ("--twist", "bad twist ''"),
    ("--window", "bad window component ''"),
])
def test_cohomology_empty_twist_or_window_is_named(capsys, tmp_path, flag, message):
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, ["cohomology", "--input", path, flag, ""])
    assert code == 2 and out == "" and message in err
    code, out, err = run(capsys, ["cohomology", "--input", path])
    assert code == 2 and out == "" and "needs --twist or --window" in err


@pytest.mark.parametrize("command, message", [
    pytest.param("regions --space 1,1,1 --window -1:1,-1:1,-1:1 --slice ''", "bad slice ''",
                 id="regions-slice"),
    pytest.param("regions --space 1,1 --window -1:1,-1:1 --mode safe --d ''",
                 "bad polarization ''", id="regions-d"),
    pytest.param("tate-profile --input {} --b 1,1 --window ''", "bad window component ''",
                 id="tate-profile-window"),
    pytest.param("tate-profile --input {} --b 1,1 --checks corner --c ''",
                 "bad corner degree ''", id="tate-profile-c-corner"),
    pytest.param("tate-profile --input {} --b 1,1 --checks strand --c ''",
                 "bad strand degree ''", id="tate-profile-c-strand"),
    pytest.param("tate-profile --input {} --b 1,1 --checks ''", "unknown check ''",
                 id="tate-profile-checks"),
    pytest.param("tate-profile --input {} --b 1,1 --checks strand --c 0,0 --I ''", "bad I ''",
                 id="tate-profile-I"),
    pytest.param("tate-profile --input {} --b 1,1 --checks strand --c 0,0 --J ''", "bad J ''",
                 id="tate-profile-J"),
    pytest.param("tate-profile --input {} --b 1,1 --checks strand --c 0,0 --K ''", "bad K ''",
                 id="tate-profile-K"),
    pytest.param("tate-profile --input {} --b 1,1 --field ''", "unrecognized field ''",
                 id="tate-profile-field"),
    pytest.param("tate-profile --b 1,1 --input ''", "cannot read :", id="tate-profile-input"),
    pytest.param("tate-profile --b 1,1 --table ''", "cannot read :", id="tate-profile-table"),
    pytest.param("cohomology --input {} --twist 0,0 --field ''", "unrecognized field ''",
                 id="cohomology-field"),
    pytest.param("cohomology --input {} --twist 0,0 --field p", "unrecognized field 'p'",
                 id="cohomology-field-p"),
    pytest.param("split-check --input {} --d 1,1 --window 0:1,0:1 --field ''",
                 "unrecognized field ''", id="split-check-field"),
    pytest.param("regions --space 1,1,1 --window -1:1,-1:1,-1:1 --slice 0,0",
                 "error: --slice needs 1 values\n", id="regions-slice-count"),
    pytest.param("regions --space 1,1 --window -1:1", "error: window dimension does not match "
                 "the space\n", id="regions-window-dimension"),
    pytest.param("tate-profile --b 1,1", "error: tate-profile needs --input or --table\n",
                 id="tate-profile-no-input"),
    pytest.param("tate-profile --input {} --b 1,1 --checks corner",
                 "error: --checks corner requires --c\n", id="tate-profile-corner-no-c"),
    pytest.param("tate-profile --input {} --b 1,1 --checks strand",
                 "error: --checks strand requires --c\n", id="tate-profile-strand-no-c"),
    pytest.param("regions --space 1,1 --window", "error: argument --window: expected one "
                 "argument\n", id="value-flag-last"),
    pytest.param("cohomology --input {} --window 0:x,0:1", "error: bad window '0:x,0:1': "
                 "invalid literal for int() with base 10: 'x'\n", id="cohomology-window-not-integer"),
    pytest.param("cohomology --input {} --window 2:1,0:1",
                 "error: empty window: lo=(2, 0) hi=(1, 1)\n", id="cohomology-window-empty"),
    pytest.param("cohomology --input {} --window -1:1",
                 "error: window dimension does not match space\n",
                 id="cohomology-window-dimension"),
    pytest.param("regions --space 1,1 --window -2:2,-2:2 --mode safe --d 1,1,1",
                 "error: polarization length does not match space\n", id="regions-d-length"),
])
def test_empty_flag_value_is_named(capsys, tmp_path, command, message):
    # A usage error is refused by name with exit 2; an empty value ('') is
    # never read as the flag left out.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, shlex.split(command.format(path)))
    assert code == 2 and out == "" and message in err


# A command line per flag of cli._VALUE_FLAGS that gives the flag '--' as its value.
DOUBLE_DASH_LINES = {
    "--space": "regions --window 0:1,0:1 --space --",
    "--window": "regions --space 1,1 --window --",
    "--slice": "regions --space 1,1,1 --window 0:1,0:1,0:1 --slice --",
    "--d": "split-check --input {} --window 0:1,0:1 --d --",
    "--twist": "cohomology --input {} --twist --",
    "--b": "tate-profile --input {} --b --",
    "--c": "tate-profile --input {} --b 1,1 --checks corner --c --",
    "--I": "tate-profile --input {} --b 1,1 --checks strand --c 0,0 --I --",
    "--J": "tate-profile --input {} --b 1,1 --checks strand --c 0,0 --J --",
    "--K": "tate-profile --input {} --b 1,1 --checks strand --c 0,0 --K --",
}


@pytest.mark.parametrize("flag", sorted(cli._VALUE_FLAGS))
def test_value_flag_given_double_dash_is_named(capsys, tmp_path, flag):
    # '--' was joined to the flag as --flag=--, which argparse read as an
    # empty list, and the command ended in an AttributeError traceback.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, shlex.split(DOUBLE_DASH_LINES[flag].format(path)))
    assert code == 2 and out == ""
    assert err.endswith(": error: argument %s: expected one argument\n" % flag)


@pytest.mark.parametrize("command", [
    "cohomology --input=-- --twist 0,0",
    "cohomology --input {} --twist=--",
    "cohomology --input {} --twist 0,0 --field=--",
    "cohomology --input {} --twist 0,0 --format=--",
    "cohomology --input {} --twist 0,0 --check-prime=--",
    "regions --space=-- --window 0:1,0:1",
])
def test_flag_equals_double_dash_is_refused(capsys, tmp_path, command):
    # argparse up to Python 3.12 reads --flag=-- as an empty list, which is
    # refused by name; 3.13 reads the value '--', which the flag refuses.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, shlex.split(command.format(path)))
    assert code == 2 and out == "" and "error: " in err


def test_cohomology_json_roundtrip(capsys, tmp_path):
    from prodcoh.tate import CohomologyTable

    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(1, 1)]))
    code, out, _ = run(
        capsys,
        ["cohomology", "--input", path, "--window", "-1:1,-1:1",
         "--format", "json"],
    )
    assert code == 0
    table = CohomologyTable.from_json(json.loads(out))
    assert table.known_dim((1, 1), 0) == 9


def test_cohomology_field_flag(capsys, tmp_path):
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, _ = run(
        capsys,
        ["cohomology", "--input", path, "--twist", "0,0", "--field", "q",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["h"] == [1, 0, 0]


def test_cohomology_large_prime(capsys, tmp_path):
    # Products of field elements exceed 2**63 at this prime.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, _ = run(
        capsys,
        ["cohomology", "--input", path, "--twist", "0,0", "--field",
         "p:4294967291", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["h"] == [1, 0, 0]
    code, _, err = run(
        capsys,
        ["cohomology", "--input", path, "--twist", "0,0", "--field",
         "p:%d" % (2**89 - 1)],
    )
    assert code == 2 and "too large" in err


def test_cohomology_truncation_exit(capsys, tmp_path, monkeypatch):
    # A transferred differential with D_H o D_H != 0 fails the engine's
    # self-check: exit 3, nothing on stdout, on the chamber route of the
    # Koszul point and on the per-twist route.
    path = write_complex(tmp_path, koszul_point_complex())
    hits = break_transfer(monkeypatch)
    for route in ("chambers", "per twist"):
        if route == "per twist":
            assert not hits["per twist"]  # the chamber route took every twist
            per_twist_only(monkeypatch)
        code, out, err = run(capsys, ["cohomology", "--input", path, "--twist", "1,1"])
        assert code == 3 and "self-check" in err and out == ""
        assert hits[route], route


@pytest.mark.parametrize("args", [
    ["cohomology", "--window", "0:1,0:1"],
    ["tate-profile", "--b", "1,1"],
    ["tate-profile", "--b", "1,1", "--checks", "tate,corner", "--c", "0,0"],
])
def test_window_self_check_exit(capsys, tmp_path, monkeypatch, args):
    # The window engine keeps the self-check on both routes: exit 3,
    # nothing on stdout.
    path = write_complex(tmp_path, koszul_point_complex())
    hits = break_transfer(monkeypatch)
    for route in ("chambers", "per twist"):
        if route == "per twist":
            assert not hits["per twist"]  # the chamber route took every twist
            per_twist_only(monkeypatch)
        code, out, err = run(capsys, args[:1] + ["--input", path] + args[1:])
        assert code == 3 and "self-check" in err and out == ""
        assert hits[route], route


def corrupt_transfer(monkeypatch, wanted):
    """Double one entry of the column of each class (p, e) of D_H with
    wanted(p, e, its last level) in minmodel._transfer, the seam of both
    routes.  Returns the list of corrupted classes."""
    transfer = minmodel._transfer
    corrupted_classes = []

    def corrupted(space, poly, block, prime, width):
        cols = transfer(space, poly, block, prime, width)
        for (k, label), (p, _, f) in named_classes(block).items():
            col, e = cols[k][label], unpack(space, width, f)
            if col and wanted(p, e, last_level(space, p, e, block_pairs(block))):
                key = min(col)
                col[key] = 2 * col[key] % prime
                corrupted_classes.append(e)
        return cols

    monkeypatch.setattr(minmodel, "_transfer", corrupted)
    return corrupted_classes


def test_level0_self_check_exit(capsys, tmp_path, monkeypatch):
    # At (-3,-3) every class of the Koszul point is fully negative in both
    # factors and its series stops at level 0, where D_H is multiplication.
    # Doubling one entry of a column out of the degree -2 term breaks
    # D_H o D_H = 0: EngineCheckFailed, and exit 3 with nothing on stdout,
    # first in the chamber blocks, enumerating no class, then in the
    # per-twist route's columns.
    K = koszul_point_complex()
    path = write_complex(tmp_path, K)
    assert cech.hypercohomology(K, (-3, -3)) == (1, 0, 0)
    corrupted_classes = corrupt_transfer(
        monkeypatch, lambda p, e, last: p == -2 and max(map(max, e)) < 0 and last == 0)
    bott_classes = minmodel.bott_classes
    monkeypatch.setattr(minmodel, "bott_classes", no_classes)
    for route in ("chambers", "per twist"):
        if route == "per twist":
            monkeypatch.setattr(minmodel, "bott_classes", bott_classes)
            per_twist_only(monkeypatch)
        corrupted_classes.clear()
        with pytest.raises(cech.EngineCheckFailed):
            cech.hypercohomology(K, (-3, -3))
        assert corrupted_classes, route
        code, out, err = run(capsys, ["cohomology", "--input", path, "--twist", "-3,-3"])
        assert code == 3 and "self-check" in err and out == ""


def test_series_self_check_exit_on_the_chamber_route(capsys, tmp_path, monkeypatch):
    # The Koszul complex of x_{0,0}^2, x_{0,1}^2 and x_{1,0} x_{1,1} at
    # (0,-2): a chamber block runs a class's series past level 0, and
    # doubling one entry of that column breaks D_H o D_H = 0 there: exit 3,
    # nothing on stdout, and no class enumerated.
    path = write_complex(tmp_path, series_complex("x00^2,x01^2,x10x11", default_field()))
    corrupted_classes = corrupt_transfer(monkeypatch, lambda p, e, last: last and last > 0)
    monkeypatch.setattr(minmodel, "bott_classes", no_classes)
    code, out, err = run(capsys, ["cohomology", "--input", path, "--twist", "0,-2"])
    assert corrupted_classes
    assert code == 3 and "self-check" in err and out == ""


def test_series_self_check_exit_on_the_per_twist_route(capsys, tmp_path, monkeypatch):
    # The same complex and twist on the per-twist route, which hands the
    # twist's classes to _transfer as one block: exit 3 and nothing on stdout.
    path = write_complex(tmp_path, series_complex("x00^2,x01^2,x10x11", default_field()))
    corrupted_classes = corrupt_transfer(monkeypatch, lambda p, e, last: last and last > 0)
    per_twist_only(monkeypatch)
    code, out, err = run(capsys, ["cohomology", "--input", path, "--twist", "0,-2"])
    assert corrupted_classes
    assert code == 3 and "self-check" in err and out == ""


SIGN_FLIP_ERROR = ("error: invalid complex: "
                   "[(-2, 0, 0, 'dd', 'composite 2*x0_1*x1_1 is nonzero')]\n")


def test_cohomology_invalid_complex(capsys, tmp_path):
    path = write_complex(tmp_path, koszul_sign_flip_json())
    for args in (["--twist", "0,0"], ["--window", "0:1,0:1"]):
        code, out, err = run(capsys, ["cohomology", "--input", path] + args)
        assert (code, out, err) == (2, "", SIGN_FLIP_ERROR)


@pytest.mark.parametrize("command", [
    "tate-profile --b 0,0",
    "split-check --d 1,1 --window -3:2,-3:2",
    # The complex is refused where it is read, before tate-profile's checks.
    "tate-profile --b 0,0 --checks bogus",
])
def test_every_command_refuses_an_invalid_complex_where_it_is_read(capsys, tmp_path, command):
    # The error cohomology prints.  split-check exited 11 with an
    # Inconclusive verdict on stdout, and --checks bogus was refused as an
    # unknown check.
    path = write_complex(tmp_path, koszul_sign_flip_json())
    argv = command.split()
    code, out, err = run(capsys, argv[:1] + ["--input", path] + argv[1:])
    assert (code, out, err) == (2, "", SIGN_FLIP_ERROR)


def test_cohomology_check_prime(capsys, tmp_path):
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, _ = run(
        capsys,
        ["cohomology", "--input", path, "--twist", "1,1", "--format", "json",
         "--check-prime", "32749"],
    )
    assert code == 0 and json.loads(out)["h"] == [1, 0, 0]


def test_cohomology_check_prime_disagreement(capsys, tmp_path):
    # O(-1,0) --3 x_{0,1}--> O is the divisor x_{0,1} = 0 at p = 65521; at
    # p = 3 the map vanishes and h^0(F(1,0)) is 2, not 1.
    sp = ProductSpace((1, 1))
    F = default_field()
    three_x1 = MultiHomogPoly.variable(sp, F, 0, 1, 3)
    C = LineBundleComplex(sp, F, {-1: [(-1, 0)], 0: [(0, 0)]}, {-1: [[three_x1]]})
    path = write_complex(tmp_path, C)
    for args in (["--twist", "1,0"], ["--window", "0:1,0:1"]):
        code, out, err = run(
            capsys, ["cohomology", "--input", path, "--check-prime", "3"] + args
        )
        assert code == 5 and "differ between primes" in err and out == ""


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"space": ')
    code, _, err = run(capsys, ["cohomology", "--input", str(path), "--twist", "0,0"])
    assert code == 2 and "line" in err


BAD_FILES = {
    "not-utf8": (b'\xff{"space": {}}', "{}: invalid JSON: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
    "deep": (b"[" * 200_000, "{}: invalid JSON: maximum recursion depth exceeded"),
    "missing": (None, "cannot read {}: "),
    "malformed": (b'{"space": ', "{}: invalid JSON: Expecting value: line 1 column 11 (char 10)"),
}


@pytest.mark.parametrize("command", [
    "cohomology --input {} --twist 0,0",
    "split-check --input {} --d 1,1 --window 0:1,0:1",
    "tate-profile --input {} --b 0,0",
    "tate-profile --table {} --b 0,0",
], ids=["cohomology", "split-check", "tate-profile-input", "tate-profile-table"])
@pytest.mark.parametrize("kind", list(BAD_FILES))
def test_every_file_flag_refuses_a_bad_file_one_way(capsys, tmp_path, command, kind):
    # The bytes that are not UTF-8 ended --input in a UnicodeDecodeError
    # traceback, the deep nesting both flags in a RecursionError traceback,
    # and an unreadable --table read "table PATH: ..." where --input read
    # "cannot read PATH: ...".
    data, message = BAD_FILES[kind]
    path = tmp_path / "bad.json"
    if data is not None:
        path.write_bytes(data)
    code, out, err = run(capsys, shlex.split(command.format(path)))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: " + message.format(path)), err


def test_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"factor_dims": [1, 1]}}))
    code, _, err = run(capsys, ["cohomology", "--input", str(path), "--twist", "0,0"])
    assert code == 2 and "complex" in err


def _refused(capsys, tmp_path, obj, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["cohomology", "--input", str(path), "--twist", "1,0"])
    assert (code, out) == (2, "") and err.startswith("error: " + where), err


def _zero_map(entry):
    """O(-1,0) -> O on P1xP1 with the given degree-(1,0) entry."""
    return {
        "space": {"factor_dims": [1, 1]},
        "complex": {
            "terms": [{"p": -1, "twists": [[-1, 0]]}, {"p": 0, "twists": [[0, 0]]}],
            "diffs": [{"p": -1, "entries": [[entry]]}],
        },
    }


def test_repeated_monomial_is_refused(capsys, tmp_path):
    # x_{0,0} - x_{0,0} spells out the zero map, h = (2,0,0) at (1,0); keeping
    # only the last coefficient would read it as -x_{0,0}, h = (1,0,0).
    x00 = [[1, 0], [0, 0]]
    entry = {"degree": [1, 0], "terms": [{"c": 1, "e": x00}, {"c": -1, "e": x00}]}
    _refused(capsys, tmp_path, _zero_map(entry), "complex.diffs[0].entries[0][0].terms[1].e:")


def test_repeated_term_degree_is_refused(capsys, tmp_path):
    obj = {"space": {"factor_dims": [1, 1]}, "complex": {"terms": [
        {"p": 0, "twists": [[0, 0]]}, {"p": 0, "twists": [[1, 0]]}]}}
    _refused(capsys, tmp_path, obj, "complex.terms[1].p:")


def test_repeated_diff_degree_is_refused(capsys, tmp_path):
    obj = koszul_point_complex().to_json()
    obj["complex"]["diffs"].append(obj["complex"]["diffs"][0])
    _refused(capsys, tmp_path, obj, "complex.diffs[2].p:")


def test_malformed_field_is_refused(capsys, tmp_path):
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, ["cohomology", "--input", path, "--twist", "0,0",
                                  "--field", "p:abc"])
    assert (code, out) == (2, "") and "bad modulus" in err
    obj = koszul_point_complex().to_json()
    obj["field"] = 5
    _refused(capsys, tmp_path, obj, "field:")


DROP = object()


def _koszul_json_with(where, value):
    """The Koszul point's JSON with the entry at the key path `where` set,
    or removed when value is DROP."""
    obj = koszul_point_complex().to_json()
    node = obj
    for key in where[:-1]:
        node = node[key]
    if value is DROP:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    return obj


ENTRY = ("complex", "diffs", 0, "entries", 0, 0)


@pytest.mark.parametrize("where, value, path", [
    (("complex", "terms", 0, "p"), -1.7, "complex.terms[0].p:"),
    (("complex", "diffs", 0, "p"), -1.7, "complex.diffs[0].p:"),
    (("complex", "terms", 2, "twists", 0), [0.9, 0], "complex.terms[2].twists[0]:"),
    (ENTRY + ("degree",), [0, 1.2], "complex.diffs[0].entries[0][0]:"),
    (ENTRY + ("terms", 0, "e"), [[0, 0], [0, 1.9]], "complex.diffs[0].entries[0][0].terms[0].e:"),
    (ENTRY + ("terms", 0, "c"), 1.5, "complex.diffs[0].entries[0][0].terms[0].c:"),
    (ENTRY + ("terms", 0, "c"), "abc", "complex.diffs[0].entries[0][0].terms[0].c:"),
    (ENTRY + ("terms", 0, "c"), "1/0", "complex.diffs[0].entries[0][0].terms[0].c:"),
    (ENTRY + ("terms", 0, "c"), "1/65521", "complex.diffs[0].entries[0][0].terms[0].c:"),
    (ENTRY, 0.0, "complex.diffs[0].entries[0][0]:"),
    (ENTRY, False, "complex.diffs[0].entries[0][0]:"),
    (("space", "factor_dims"), [1, 1.5], "space:"),
], ids=["term-p", "diff-p", "twist", "poly-degree", "exponent", "coefficient",
        "coefficient-word", "coefficient-over-zero", "coefficient-over-p", "entry-float-zero",
        "entry-false", "factor-dims"])
def test_non_integer_is_refused(capsys, tmp_path, where, value, path):
    # Read loosely, int() would truncate the numbers, 0.0 and false would pass
    # for the zero map and a bad coefficient string would end in a traceback;
    # the refusal names where each sits.
    _refused(capsys, tmp_path, _koszul_json_with(where, value), path)


@pytest.mark.parametrize("where, path", [
    (("complex", "diffs"), "complex.diffs:"),
    (("complex", "diffs", 0, "entries"), "complex.diffs[0].entries:"),
    (("complex", "diffs", 0, "entries", 0), "complex.diffs[0].entries[0]:"),
], ids=["diffs", "entries", "row"])
def test_non_list_matrix_is_refused(capsys, tmp_path, where, path):
    # Iterating the integer 5 used to end in a TypeError traceback.
    _refused(capsys, tmp_path, _koszul_json_with(where, 5), path)


@pytest.mark.parametrize("where, value, message", [
    (ENTRY + ("terms", 0, "e"), [[0, 1]],
     "complex.diffs[0].entries[0][0]: exponent vector has 1 factor blocks, expected 2"),
    (ENTRY + ("terms", 0, "e"), [[0, 0, 0], [0, 1]],
     "complex.diffs[0].entries[0][0]: exponent block (0, 0, 0) has wrong length"),
    (ENTRY + ("terms", 0, "e"), [[0, 0], [-1, 2]],
     "complex.diffs[0].entries[0][0]: negative exponent in ((0, 0), (-1, 2))"),
    (ENTRY + ("degree",), DROP, "complex.diffs[0].entries[0][0]: missing key 'degree'"),
    (("complex", "terms", 0, "twists"), DROP, "complex.terms[0]: missing key 'twists'"),
    (("complex", "diffs", 0, "entries"), DROP, "complex.diffs[0]: missing key 'entries'"),
    (ENTRY + ("terms", 0, "c"), DROP,
     "complex.diffs[0].entries[0][0].terms[0]: missing key 'c'"),
    (("complex", "terms"), DROP, "complex: missing key 'terms'"),
    (("space", "factor_dims"), DROP, "space: missing key 'factor_dims'"),
    (("space",), DROP, "missing key 'space'"),
], ids=["exponent-blocks", "exponent-block-length", "negative-exponent", "no-degree",
        "no-twists", "no-entries", "no-coefficient", "no-terms", "no-factor-dims", "no-space"])
def test_misshapen_part_is_refused(capsys, tmp_path, where, value, message):
    _refused(capsys, tmp_path, _koszul_json_with(where, value), message + "\n")


X00 = [[1, 0], [0, 0]]


@pytest.mark.parametrize("field", [[], ["--field", "q"]], ids=["fp", "q"])
@pytest.mark.parametrize("coeff", ["0.5", "1e5", "1_0", " 1/2 ", "+1", "1/-2", "1.0/2"])
def test_coefficient_outside_the_grammar_is_refused(capsys, tmp_path, field, coeff):
    # Fraction() reads every one of the first four; the format allows only
    # [-]digits[/digits].
    obj = _zero_map({"degree": [1, 0], "terms": [{"c": coeff, "e": X00}]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["cohomology", "--input", str(path), "--twist", "1,0"] + field)
    assert (code, out) == (2, "")
    assert err == ("error: complex.diffs[0].entries[0][0].terms[0].c: %r is neither an "
                   "integer nor a 'num/den' string\n" % coeff)


@pytest.mark.parametrize("field", [[], ["--field", "q"]], ids=["fp", "q"])
@pytest.mark.parametrize("coeff", [-3, "-3", "3", "-03", "6/2", "-6/2", "-0", "0/5"])
def test_coefficient_grammar_reads_as_before(capsys, tmp_path, field, coeff):
    # -3 x_{0,0}: the divisor x_{0,0} = 0, h^0 at (1,0) is 1; a zero
    # coefficient is the zero map, h^0 is 2.
    obj = _zero_map({"degree": [1, 0], "terms": [{"c": coeff, "e": X00}]})
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["cohomology", "--input", str(path), "--twist", "1,0",
                                  "--format", "json"] + field)
    h0 = 2 if coeff in ("-0", "0/5") else 1
    assert (code, err, json.loads(out)["h"]) == (0, "", [h0, 0, 0])


def test_split_check_exit_codes(capsys, tmp_path):
    sp = ProductSpace((1, 1))
    split_path = write_complex(tmp_path, free_complex(sp, [(1, 1), (-1, -1)]), "s.json")
    code, out, _ = run(
        capsys,
        ["split-check", "--input", split_path, "--d", "1,1",
         "--window", "-5:5,-5:5", "--assert-torsion-free"],
    )
    assert code == 0
    assert "SPLIT" in out and "theorem-backed" in out
    verdict = json.loads(out[out.index("{"):])
    assert verdict["verdict"] == "split"
    assert verdict["summands"] == [{"k": 1, "mult": 1}, {"k": -1, "mult": 1}]

    nonsplit_path = write_complex(tmp_path, free_complex(sp, [(1, 0)]), "n.json")
    code, out, _ = run(
        capsys,
        ["split-check", "--input", nonsplit_path, "--d", "1,1",
         "--window", "-5:5,-5:5"],
    )
    assert code == 10
    verdict = json.loads(out[out.index("{"):])
    assert verdict["witness"] == {"twist": [-1, -2], "i": 1}

    code, out, _ = run(
        capsys,
        ["split-check", "--input", split_path, "--d", "1,1",
         "--window", "-1:0,-1:0"],
    )
    assert code == 11
    assert "INCONCLUSIVE" in out

    zero_path = write_complex(tmp_path, free_complex(sp, []), "z.json")
    code, out, _ = run(
        capsys,
        ["split-check", "--input", zero_path, "--d", "1,1", "--window", "-2:2,-2:2"],
    )
    assert code == 0
    assert out.startswith("SPLIT: F = 0  [necessary conditions only")
    assert json.loads(out[out.index("{"):])["summands"] == []


@pytest.mark.parametrize("C", [
    free_complex(ProductSpace((1, 1)), [(-1, -1)]), ideal_sheaf_complex()],
    ids=["line-bundle", "ideal-sheaf"])
def test_split_check_window_without_cohomology_is_inconclusive(capsys, tmp_path, C):
    # Neither sheaf has a group at (0,0); the window cannot tell either from
    # the zero sheaf, which split-check answered with SPLIT: F = 0.
    path = write_complex(tmp_path, C)
    code, out, err = run(
        capsys, ["split-check", "--input", path, "--d", "1,1", "--window", "0:0,0:0"])
    assert (code, err) == (11, "")
    assert out.startswith("INCONCLUSIVE: no cohomology in the window\n")
    assert json.loads(out[out.index("{"):])["reason"] == "no cohomology in the window"


def test_split_check_refuses_wrong_length_d_first(capsys, tmp_path, monkeypatch):
    def no_table(*args):
        raise AssertionError("cohomology computed before the --d check")

    monkeypatch.setattr(cech, "cohomology_table", no_table)
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, _, err = run(
        capsys,
        ["split-check", "--input", path, "--d", "1", "--window", "-30:30,-30:30"],
    )
    assert code == 2
    assert err == "error: polarization length does not match space\n"


def test_split_check_ideal_sheaf_cli(capsys, tmp_path):
    path = write_complex(tmp_path, ideal_sheaf_complex())
    code, out, _ = run(
        capsys,
        ["split-check", "--input", path, "--d", "1,1", "--window", "-3:3,-3:3",
         "--assert-torsion-free"],
    )
    assert code == 10


def test_tate_profile(capsys, tmp_path):
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, out, _ = run(capsys, ["tate-profile", "--input", path, "--b", "0,0"])
    assert code == 0
    report = json.loads(out)
    assert report["profile"] == {"-2": 1, "-1": 2, "0": 1}
    assert report["checksum"] == 0


def test_tate_profile_corner(capsys, tmp_path):
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, out, _ = run(
        capsys,
        ["tate-profile", "--input", path, "--b", "0,0", "--checks", "corner",
         "--c", "0,0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["corner"]["value"] == 0 and report["corner"]["exact_expected"]


def test_tate_profile_strand(capsys, tmp_path):
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, out, _ = run(
        capsys,
        ["tate-profile", "--input", path, "--b", "0,0", "--checks", "strand",
         "--c", "0,0", "--J", "0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["strand"]["value"] == 0 and report["strand"]["exact_expected"]


@pytest.mark.parametrize("sets, message", [
    pytest.param(["--I", "5"], "--I 5: factor indices run over 0..1", id="past-last"),
    pytest.param(["--I", "-1"], "--I -1: factor indices run over 0..1", id="negative"),
    pytest.param(["--K", "0,2"], "--K 0,2: factor indices run over 0..1", id="K-past-last"),
    pytest.param(["--I", "0", "--J", "0"], "--I and --J share factor index 0", id="I-J-overlap"),
    pytest.param(["--J", "1", "--K", "0,1"], "--J and --K share factor index 1",
                 id="J-K-overlap"),
])
def test_tate_profile_strand_bad_factor_sets(capsys, tmp_path, sets, message):
    # Indices outside 0..t-1 and overlapping sets are refused with exit 2,
    # naming the flag: no traceback, and no silent alias of the last factor.
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, out, err = run(
        capsys,
        ["tate-profile", "--input", path, "--b", "0,0", "--checks", "strand",
         "--c", "0,0"] + sets,
    )
    assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("flags, message", [
    pytest.param("--checks bogus", "unknown check 'bogus'", id="unknown"),
    pytest.param("--checks tate,corner", "--checks corner requires --c", id="corner-no-c"),
    pytest.param("--checks strand", "--checks strand requires --c", id="strand-no-c"),
    pytest.param("--checks corner --c 0,0,0", "multidegree (0, 0, 0) has length 3, expected 2",
                 id="c-length"),
    pytest.param("--checks strand --c 0,0 --I 2", "--I 2: factor indices run over 0..1",
                 id="out-of-range"),
    pytest.param("--checks strand --c 0,0 --I 0 --K 0", "--I and --K share factor index 0",
                 id="overlap"),
])
def test_tate_profile_refuses_bad_checks_before_the_table(capsys, tmp_path, monkeypatch, flags,
                                                          message):
    # Each was refused only after the table was built.
    calls = []
    monkeypatch.setattr(cech, "cohomology_table", lambda *args: calls.append(args))
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, ["tate-profile", "--input", path, "--b", "0,0",
                                  "--window", "-60:60,-60:60"] + flags.split())
    assert (code, out, err, calls) == (2, "", "error: %s\n" % message, [])


@pytest.mark.parametrize("args", [["--twist", "1,1"], ["--window", "0:1,0:1"]])
def test_cohomology_check_prime_zero_is_refused(capsys, tmp_path, args):
    # --check-prime 0 is no prime, as 4, -7 and 2 are not: exit 2, where it
    # used to be skipped.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(
        capsys, ["cohomology", "--input", path, "--check-prime", "0"] + args
    )
    assert code == 2 and "odd prime, got 0" in err and out == ""


def test_tate_profile_coverage_exit(capsys, tmp_path):
    path = write_complex(tmp_path, free_complex(ProductSpace((1, 1)), [(0, 0)]))
    code, _, err = run(
        capsys,
        ["tate-profile", "--input", path, "--b", "0,0", "--window", "-1:1,-1:1"],
    )
    assert code == 4 and "-2" in err


def test_tate_profile_from_table(capsys, tmp_path):
    from conftest import bott_table
    from prodcoh.lattice import Window

    T = bott_table(ProductSpace((1, 1)), [((0, 0), 1)], Window((-3, -3), (1, 1)))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(T.to_json()))
    code, out, _ = run(
        capsys, ["tate-profile", "--table", str(path), "--b", "0,0"]
    )
    assert code == 0
    assert json.loads(out)["checksum"] == 0


def test_tate_profile_bad_table(capsys, tmp_path):
    from conftest import bott_table
    from prodcoh.lattice import Window

    T = bott_table(ProductSpace((1, 1)), [((0, 0), 1)], Window((-3, -3), (1, 1)))
    negative = T.to_json()
    negative["cells"][0]["dim"] = -1
    inferred = T.to_json()
    cell = next(c for c in inferred["cells"] if c["dim"])
    cell["status"] = "inferred_zero"
    moved = T.to_json()
    cell = next(c for c in moved["cells"] if c["dim"])
    cell["i"] = 7
    bogus = T.to_json()
    bogus["cells"][0]["status"] = "bogus"
    fractional = T.to_json()
    cell = next(c for c in fractional["cells"] if c["dim"])
    cell["dim"] = 1.5
    between = T.to_json()
    between["cells"][0]["i"] = 0.5
    true_dim = T.to_json()
    true_dim["cells"][0]["dim"] = True
    true_index = T.to_json()
    true_index["cells"][0]["i"] = True
    twice = T.to_json()
    twice["cells"].append(dict(twice["cells"][0], dim=5))
    corners = T.to_json()
    corners["window"]["lo"] = [-3]
    unplaced = T.to_json()
    del unplaced["cells"][2]["a"]
    for obj, message in (
        (negative, "negative dimension"),
        (inferred, "inferred"),
        (moved, "index 7"),
        (bogus, "status 'bogus'"),
        (fractional, "1.5 at"),
        (between, "index 0.5"),
        (true_dim, "dimension True at"),
        (true_index, "index True"),
        (twice, "cell ((-3, -3), 0) is given twice"),
        (corners, "window corners have mismatched lengths"),
        (unplaced, "table %s: cells[2]: missing key 'a'\n" % (tmp_path / "table.json")),
    ):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["tate-profile", "--table", str(path), "--b", "0,0"])
        assert code == 2 and message in err


def test_tate_profile_table_window_not_integer(capsys, tmp_path):
    from conftest import bott_table
    from prodcoh.lattice import Window

    obj = bott_table(ProductSpace((1, 1)), [((0, 0), 1)], Window((-3, -3), (1, 1))).to_json()
    obj["window"]["lo"] = [0.5, 0]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["tate-profile", "--table", str(path), "--b", "0,0"])
    assert code == 2 and "window corners must be integers" in err and out == ""


@pytest.mark.parametrize("flag, value", [
    ("--input", "nonexistent.json"), ("--window", "-3:1,-3:1"), ("--field", "q")])
def test_tate_profile_table_refuses_complex_flags(capsys, tmp_path, flag, value):
    # These flags say how to compute a table; with --table they were ignored.
    from conftest import bott_table
    from prodcoh.lattice import Window

    obj = bott_table(ProductSpace((1, 1)), [((0, 0), 1)], Window((-3, -3), (1, 1))).to_json()
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    argv = ["tate-profile", "--table", str(path), "--b", "0,0"]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + [flag, value])
    assert (code, out, err) == (2, "", "error: %s does not apply to --table\n" % flag)


def test_bad_flags(capsys):
    code, _, _ = run(capsys, ["regions", "--space", "1,1"])
    assert code == 2
    code, _, err = run(
        capsys, ["regions", "--space", "1,x", "--window", "0:1,0:1"]
    )
    assert code == 2
    # The truncation depth is derived from the input, not a flag.
    code, _, err = run(
        capsys, ["cohomology", "--input", "x.json", "--twist", "0,0", "--depth", "1,1"]
    )
    assert code == 2 and "--depth" in err


def _reference_parser(command):
    """The command's argparse parser, as parse_args builds it."""
    return cli._add_flags(argparse.ArgumentParser(prog="prodcoh " + command), command)


# Words drawn besides each command's own flags: help, the end of options, a
# stray positional and flags of no command; and values of every kind
# argparse reads its own way: empty, starting with '-', holding '=', a bad
# choice, or an integer that is signed, spaced or not one at all.
_STRAY_WORDS = ["-h", "--help", "--", "stray", "--depth", "-x"]
_VALUES = ["", "x.json", "1,1", "-1,2", "0:1,-1:1", "a=b", "=", "q", "p:7", "json", "ascii",
           "full", "safe", "bogus", "3", "-3", "+3", " 3", "1_0", "3.0", "x", "--twist", "-h"]


def _draw_command_line(rng):
    """A command and the words after it: its required flags usually, its
    others sometimes, and now and then a flag repeated, abbreviated or of
    another command, or a stray word; a flag's value follows after '=',
    after a space or not at all."""
    command = rng.choice(sorted(cli._COMMANDS))
    flags = dict(cli._COMMANDS[command][2])
    others = sorted({f for _, _, fl in cli._COMMANDS.values() for f, _ in fl} - set(flags))
    picks = [f for f, kw in flags.items() if rng.random() < (0.9 if kw.get("required") else 0.3)]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        flag, kind = rng.choice(sorted(flags)), rng.random()
        if kind < 0.3:
            picks.append(flag)
        elif kind < 0.55 and len(flag) > 3:
            picks.append(flag[:rng.randint(3, len(flag) - 1)])
        else:
            picks.append(rng.choice(others if kind < 0.8 else _STRAY_WORDS))
    rng.shuffle(picks)
    words = []
    for word in picks:
        kwargs = flags.get(word, {})
        bare = 0.8 if kwargs.get("action") == "store_true" else 0.1
        form = rng.choices(["", "=", " "], [bare, (1 - bare) / 2, (1 - bare) / 2])[0]
        if word in _STRAY_WORDS or not form:
            words.append(word)
            continue
        value = (rng.choice(kwargs["choices"]) if "choices" in kwargs else
                 "3" if "type" in kwargs else "x") if rng.random() < 0.6 else rng.choice(_VALUES)
        words += [word + "=" + value] if form == "=" else [word, value]
    return command, words


def _table_path_mismatches(rng, draws):
    """How many of the drawn command lines the table path reads, and each
    that the command's argparse parser reads otherwise."""
    parsers = {command: _reference_parser(command) for command in cli._COMMANDS}
    read, mismatches = 0, []
    for _ in range(draws):
        command, raw = _draw_command_line(rng)
        words = cli._join_values([command] + raw)[1:]
        args = cli._read_flags(command, words)
        if args is None:
            continue
        read += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want = parsers[command].parse_known_args(words)
        except SystemExit:
            want = "SystemExit"
        if want != (args, []):
            mismatches.append((command, raw, args, want))
    return read, mismatches


def test_table_path_reads_as_argparse():
    read, mismatches = _table_path_mismatches(random.Random(0), 20000)
    assert mismatches == []
    assert read > 2000  # the draws reach the table path, not argparse alone


# The command lines README.md shows, and one of each shape the benchmark sends.
WELL_FORMED = [
    "regions --space 2,3 --window -5:1,-5:2 --mode full",
    "regions --space 2,3 --window -5:1,-5:2 --mode intermediate",
    "regions --space 1,1 --d 1,1 --window -4:4,-4:4 --mode safe",
    "regions --space 1,1 --window -2:2,-2:2 --mode full",
    "cohomology --input complex.json --twist -2,-2 --format json",
    "cohomology --input complex.json --window -3:3,-3:3 --format csv",
    "split-check --input complex.json --d 1,1 --window -5:5,-5:5 --assert-torsion-free",
    "tate-profile --input complex.json --b 0,0 --checks corner --c 0,0",
    "cohomology --input c.json --twist -1,0 --field q --format json --check-prime 7",
    "cohomology --input c.json --window -6:6,-6:6",
    "split-check --input c.json --d 1,2 --window -3:2,-3:2",
    "tate-profile --input c.json --b 0,0,0 --checks strand --c 0,0,0 --I 0 --J 1 --K 2",
    "regions --space 1,1 --window -4:4,-4:4 --mode safe --d 1,1",
]


@pytest.mark.parametrize("line", WELL_FORMED)
def test_well_formed_command_line_builds_no_parser(monkeypatch, line):
    argv = shlex.split(line)
    want = _reference_parser(argv[0]).parse_args(cli._join_values(argv)[1:])

    def no_parser(*args, **kwargs):
        raise AssertionError("an argparse parser was built for " + line)

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    assert cli.parse_args(argv) == want


@pytest.mark.parametrize("command, message", [
    pytest.param("cohomology --input {} --twist 1,1 --window garbage",
                 "--window does not apply to --twist", id="cohomology-window-with-twist"),
    pytest.param("regions --space 1,1 --window -1:1,-1:1 --d 9,9,9",
                 "--d does not apply to --mode full", id="regions-d-full"),
    pytest.param("regions --space 1,1 --window -1:1,-1:1 --mode intermediate --d 1,1",
                 "--d does not apply to --mode intermediate", id="regions-d-intermediate"),
    pytest.param("tate-profile --input {} --b 1,1 --c 0,0",
                 "--c does not apply without --checks corner or strand", id="tate-profile-c"),
    pytest.param("tate-profile --input {} --b 1,1 --checks tate --c 0,0",
                 "--c does not apply without --checks corner or strand",
                 id="tate-profile-c-tate"),
    pytest.param("tate-profile --input {} --b 1,1 --checks corner --c 0,0 --I 0",
                 "--I does not apply without --checks strand", id="tate-profile-I"),
    pytest.param("tate-profile --input {} --b 1,1 --J 0",
                 "--J does not apply without --checks strand", id="tate-profile-J"),
    pytest.param("tate-profile --input {} --b 1,1 --checks tate --K 0",
                 "--K does not apply without --checks strand", id="tate-profile-K"),
])
def test_ignored_flag_is_refused(capsys, tmp_path, command, message):
    # Each flag was ignored, and the command exited 0.
    path = write_complex(tmp_path, koszul_point_complex())
    code, out, err = run(capsys, command.format(path).split())
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("args", [["--twist", "1,1"], ["--window", "0:1,0:1"]])
def test_cohomology_check_prime_over_q(capsys, tmp_path, args):
    # Over Q nothing is compared, but a value that is no prime is still
    # refused, as over F_p; a prime leaves the output as it is.
    path = write_complex(tmp_path, koszul_point_complex())
    base = ["cohomology", "--input", path, "--field", "q"] + args
    for bad in ("0", "4"):
        code, out, err = run(capsys, base + ["--check-prime", bad])
        assert (code, out) == (2, "") and "odd prime, got %s" % bad in err
    _, plain, _ = run(capsys, base)
    assert run(capsys, base + ["--check-prime", "3"]) == (0, plain, "")


@pytest.mark.parametrize("slice_", [[], ["--slice", "0"]])
def test_regions_one_factor(capsys, slice_):
    code, out, err = run(capsys, ["regions", "--space", "2", "--window", "-3:3"] + slice_)
    assert (code, out) == (2, "") and "at least two factors" in err
