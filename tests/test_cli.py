import argparse
import decimal
import json
import math
import pathlib
import re
import sys

import pytest

from triwalks import cli, lattice, motzkin, pyramid3d


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out[:-1], json.loads(out[-1])


def test_count_motzkin(capsys):
    code, human, doc = run(capsys, "count", "motzkin", "--n", "4", "--amplitude", "3")
    assert code == 0
    assert doc["outputs"]["count"] == "8"
    assert any("8" in line for line in human)


def test_count_triangular(capsys):
    code, _, doc = run(
        capsys, "count", "triangular", "--L", "3", "--n", "2", "--dv", "FF",
        "--start", "0,0,3",
    )
    assert code == 0
    assert doc["outputs"]["count"] == "2"


def test_count_generic_bicolored_pyramid_waffle(capsys):
    assert run(capsys, "count", "generic", "--L", "3", "--n", "2")[2]["outputs"]["count"] == "8"
    assert run(capsys, "count", "bicolored", "--L", "3", "--p", "1", "--q", "1")[2][
        "outputs"
    ]["count"] == "4"
    assert run(capsys, "count", "pyramid", "--L", "2", "--n", "4")[2]["outputs"][
        "count"
    ] == "6"
    assert run(capsys, "count", "waffle", "--L", "2", "--n", "4", "--start", "0,0")[2][
        "outputs"
    ]["count"] == "6"


def test_enumerate(capsys):
    code, _, doc = run(capsys, "enumerate", "triangular", "--L", "3", "--dv", "FF")
    assert code == 0
    assert doc["outputs"]["items"] == ["s1 s1", "s1 s2"]
    code, _, doc = run(capsys, "enumerate", "motzkin", "--n", "2", "--amplitude", "2")
    assert doc["outputs"]["items"] == ["UD", "FF"]


def test_map_trapezium_round_trip(capsys):
    code, _, doc = run(
        capsys, "map", "--method", "trapezium", "--direction", "m2t", "--L", "3", "UFDF"
    )
    assert code == 0
    path = doc["outputs"]["path"]
    code, _, doc2 = run(
        capsys, "map", "--method", "trapezium", "--direction", "t2m", "--L", "3", path
    )
    assert doc2["outputs"]["motzkin"] == "UFDF"
    assert doc2["outputs"]["amplitude"] <= 3


def test_map_spec_example(capsys):
    code, _, doc = run(
        capsys, "map", "--method", "trapezium", "--direction", "t2m", "--L", "3",
        "s1 s1 s2 s3",
    )
    assert code == 0
    word = doc["outputs"]["motzkin"]
    assert len(word) == 4 and doc["outputs"]["amplitude"] <= 3


def test_map_random_and_omega(capsys):
    code, _, doc = run(
        capsys, "map", "--method", "random:5", "--direction", "m2t", "--L", "4",
        "UFDF",
    )
    assert code == 0
    code, _, doc = run(capsys, "map", "--method", "omega", "--direction", "t2m",
                       "--L", "3", "s1 s1 s2 s3")
    assert code == 0 and len(doc["outputs"]["motzkin"]) == 4
    word = doc["outputs"]["motzkin"]
    code, _, doc2 = run(capsys, "map", "--method", "omega", "--direction", "m2t",
                        "--L", "3", word)
    assert doc2["outputs"]["path"] == "s1 s1 s2 s3"


def test_map_bicolored(capsys):
    code, _, doc = run(
        capsys, "map", "--method", "trapezium", "--bicolored", "two", "--L", "3", "UfD"
    )
    assert code == 0
    assert doc["outputs"]["direction_vector"] == "FBF"


def test_sample_requires_seed_and_is_deterministic(capsys):
    code = cli.main(["sample", "motzkin", "--n", "4", "--amplitude", "3"])
    capsys.readouterr()
    assert code != 0  # missing --seed
    _, _, a = run(capsys, "sample", "motzkin", "--n", "6", "--amplitude", "4", "--seed", "9")
    _, _, b = run(capsys, "sample", "motzkin", "--n", "6", "--amplitude", "4", "--seed", "9")
    a.pop("timing"), b.pop("timing")
    assert a == b
    _, _, doc = run(capsys, "sample", "forward", "--n", "5", "--L", "3", "--seed", "4")
    assert len(doc["outputs"]["path"].split()) == 5


def test_profile(capsys):
    code, _, doc = run(capsys, "profile", "--point", "1,1,3")
    assert code == 0
    assert doc["outputs"]["profile"] == [1, 2, 1]
    assert [0, 0] in doc["outputs"]["cells"]


def test_gf_and_pyramid(capsys):
    _, _, doc = run(capsys, "gf", "--L", "1", "--terms", "5")
    assert doc["outputs"]["coefficients"] == ["1"] * 6
    _, _, doc = run(capsys, "pyramid", "count", "--L", "2", "--n", "8")
    assert doc["outputs"]["count"] == "54"
    _, _, doc = run(capsys, "pyramid", "gf", "--L", "2", "--terms", "8")
    assert doc["outputs"]["coefficients"][-1] == "54"
    _, _, doc = run(capsys, "pyramid", "map", "--L", "2", "--cell", "0,0",
                    "--walk", "EW")
    assert len(doc["outputs"]["path"].split()) == 2


def test_pyramid_map_cell_of_the_wrong_length_is_one_error_document(capsys):
    code, human, doc = run(capsys, "pyramid", "map", "--L", "3", "--cell", "0,0,0",
                           "--walk", "N")
    assert code == 1 and human == []
    assert doc["ok"] is False
    assert doc["error"] == "cell (0, 0, 0) not in C((0, 0, 0, 3))"


def test_pyramid_map_walk_ending_off_the_axis_is_one_error_document(capsys):
    # "EN" ends at (1, 1), off the axis, so outside the bijection's domain
    code = cli.main(["pyramid", "map", "--L", "4", "--walk", "EN"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1 and len(out) == 1
    doc = json.loads(out[0])
    assert doc["ok"] is False and doc["error"] == "walk ends at (1, 1), off the axis j = 0"


@pytest.mark.parametrize(
    "argv",
    ["pyramid map --L 4 --walk EN", "pyramid count --L 4 --n -1",
     "pyramid gf --L 4 --terms -1"],
)
def test_pyramid_errors_name_the_command_of_the_answer(capsys, argv):
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == [] and doc["ok"] is False
    assert doc["command"] == " ".join(argv.split()[:2])


def test_counts_in_3d_are_the_dp(capsys):
    # count generic --d 3 is the cell sum times 2^n, count triangular --d 3
    # the cell sum for any direction vector; both against the DP
    def count(*argv):
        return run(capsys, *argv)[2]["outputs"]["count"]

    for L in range(6):
        for z in lattice.all_points(L, 3):
            start = lattice.format_point(z)
            for n in range(6):
                got = count("count", "generic", "--d", "3", "--L", str(L), "--n", str(n),
                            "--start", start)
                assert got == str(lattice.count_generic(L, 3, z, n)), (L, z, n)
            for dv in ("", "B", "FB", "BBF", "FBFFB"):
                got = count("count", "triangular", "--d", "3", "--L", str(L), "--dv", dv,
                            "--start", start)
                assert got == str(lattice.count_paths(L, 3, z, dv)), (L, z, dv)
            got = count("count", "pyramid", "--L", str(L), "--n", "5", "--start", start,
                        "--orientation", "B")
            assert got == str(lattice.count_paths(L, 3, z, "BBBBB")), (L, z)


def test_the_parser_is_built_once_and_reused(capsys):
    # a bad command line, a good one and --help give what a fresh parser gives
    argvs = [["count", "--n", "x"], ["count", "pyramid", "--L", "3", "--n", "5"], ["--help"]]

    def outcome(argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        lines = out.splitlines()
        if lines and lines[-1].startswith("{"):
            doc = json.loads(lines[-1])
            doc.pop("timing", None)
            lines[-1] = doc
        return code, lines, err

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli.build_parser.cache_clear()
    reused = [outcome(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0]


def test_verify_subcommand(capsys):
    code, human, doc = run(capsys, "verify", "--suite", "profiles", "--max-L", "4",
                           "--max-n", "4")
    assert code == 0
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])
    assert any(line.startswith("PASS") for line in human)


@pytest.mark.parametrize("max_L, max_n", [(0, 0), (1, 5), (2, 2), (4, 1)])
def test_verify_passes_on_shrunk_grids(capsys, max_L, max_n):
    # too small to show all nine tile tops, or to draw a transport schedule
    code, human, doc = run(capsys, "verify", "--suite", "all", "--max-L", str(max_L),
                           "--max-n", str(max_n))
    assert code == 0 and doc["ok"] is True, human


def test_error_reporting(capsys):
    code = cli.main(["count", "motzkin", "--n", "-1", "--amplitude", "3"])
    out = capsys.readouterr()
    assert code != 0 or json.loads(out.out.strip().splitlines()[-1])["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        "count triangular --L 3 --start 0,0,5",
        "count triangular --L 3 --start 1,1,1,0",
        "count generic --L 3 --n 2 --start 0,0,5",
        "count pyramid --L 2 --start 0,0,0,5",
        "count triangular --d 3 --L 3 --start 0,0,5",
        "count generic --d 3 --L 3 --n 2 --start 0,0,0,5",
        "profile --point 1,-1,2",
        "profile --point 1,2",
        "profile --point 1,2,3,4",
    ],
)
def test_off_lattice_start_is_one_error_document(capsys, argv):
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == []
    assert doc["ok"] is False and "not in the lattice" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        "count triangular --d -1 --L 3 --start 0,0,3",
        "count triangular --d 0 --L 3 --start 3",
        "count generic --d 0 --L 3 --n 2 --start 3",
        "enumerate triangular --d -1 --L 3 --dv F --start 0,3",
    ],
)
def test_dimension_below_one_is_rejected_with_a_start(capsys, argv):
    # found by the argv fuzz: with --start, d = -1 failed inside itertools and
    # d = 0 answered, where the corner start rejects both
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == []
    assert doc["ok"] is False and "d >= 1" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        "count triangular --L 3 --dv FX",
        "count triangular --d 3 --L 3 --dv FX",
        "enumerate triangular --L 3 --dv FQ",
    ],
)
def test_direction_vector_letters_are_checked(capsys, argv):
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == []
    assert doc["ok"] is False and "direction vector" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        "count waffle --L 4 --n 2 --start 0,0,1",
        "count waffle --L 4 --n 2 --start 1",
        "count waffle --L 4 --n 2 --start 3,2",
    ],
)
def test_waffle_start_is_checked(capsys, argv):
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == []
    assert doc["ok"] is False and "is not a waffle point" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--method", "omega", "--direction", "m2t", "--L", "1201", "U" * 600 + "D" * 600],
        ["map", "--method", "omega", "--direction", "t2m", "--L", "2401", " ".join(["s1"] * 1200)],
    ],
)
def test_omega_past_the_recursion_limit_is_one_error_document(capsys, argv):
    code, human, doc = run(capsys, *argv)
    assert code == 1 and human == []
    assert doc["ok"] is False and "recursion limit" in doc["error"]


def test_omega_rejects_steps_outside_the_triangle(capsys):
    code, human, doc = run(capsys, "map", "--method", "omega", "--direction", "t2m",
                           "--L", "3", "s2 s7")
    assert code == 1 and human == []
    # s2 leaves the triangle at the corner, before s7 is read
    assert doc["ok"] is False and doc["error"] == "walk leaves the triangle"


# a walk that leaves the triangle has no bad step to name (None)
@pytest.mark.parametrize("method", ["trapezium", "random:3", "omega"])
@pytest.mark.parametrize("walk, step", [("s1 s4", "4"), ("-s1", "-1"), ("s1 -s1", "-1"),
                                        ("s1 s1 s1 s1", None), ("s2 s3 s1 -s1", None)])
def test_scaffolding_inverse_names_a_bad_step(capsys, method, walk, step):
    # "--" lets a walk that starts with "-" be the input
    code, human, doc = run(capsys, "map", "--method", method, "--direction", "t2m",
                           "--L", "3", "--", walk)
    assert code == 1 and human == [] and doc["ok"] is False
    assert doc["error"] == (f"bad step {step}: a triangle walk takes forward steps 1-3"
                            if step else "walk leaves the triangle")


def test_gf_precision_follows_the_number_of_terms(capsys):
    code, _, doc = run(capsys, "gf", "--L", "10", "--terms", "100")
    assert code == 0 and len(doc["outputs"]["coefficients"]) == 101


def test_reports_are_deterministic(capsys):
    _, _, a = run(capsys, "count", "motzkin", "--n", "5", "--amplitude", "4")
    _, _, b = run(capsys, "count", "motzkin", "--n", "5", "--amplitude", "4")
    a.pop("timing"), b.pop("timing")
    assert a == b


def _count(capsys, argv):
    """The count that ``triwalks argv`` answers, as an int; its human line
    holds the same digits as its document."""
    code, human, doc = run(capsys, *argv.split())
    assert code == 0 and human == [f"count = {doc['outputs']['count']}"], argv
    return int(decimal.Decimal(doc["outputs"]["count"]))


def test_count_motzkin_builds_one_meander_row(capsys, monkeypatch):
    rows = []
    row = motzkin.meander_row
    monkeypatch.setattr(motzkin, "meander_row", lambda L, n: rows.append((L, n)) or row(L, n))
    for argv, count in (("count motzkin --n 6 --amplitude 4", "45"),
                        ("count motzkin --n 6 --amplitude 4 --start-height 1", "56")):
        rows.clear()
        code, _, doc = run(capsys, *argv.split())
        assert (code, doc["outputs"]["count"], rows) == (0, count, [(4, 6)]), argv
    # a bad n or amplitude is still reported before a bad height
    for argv, error in (
            ("--n -1 --amplitude 4 --start-height 3", "need n, L >= 0, got n=-1, L=4"),
            ("--n 2 --amplitude -1 --start-height 1", "need n, L >= 0, got n=2, L=-1"),
            ("--n 2 --amplitude 4 --start-height 3", "start height 3 not in 0..2 for L=4")):
        code, _, doc = run(capsys, "count", "motzkin", *argv.split())
        assert (code, doc["error"]) == (1, error), argv


def test_counts_past_the_digit_limit_of_str(capsys):
    # CPython's str() and int() refuse more than 4,300 digits; each count here
    # has more, and is checked against a second route to the same number
    limit = sys.get_int_max_str_digits()
    assert 9200 > lattice._crossover(motzkin._strip(40))  # so x^n mod chi counts it
    triangular = _count(capsys, "count triangular --L 40 --n 9200")
    assert triangular > 10**4300
    # Mortimer-Prellberg: walks from the corner are the bounded Motzkin paths,
    # counted here by the kernel's other engine, the packed sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "POWER_CROSSOVER", (math.inf, 0))
        assert triangular == _count(capsys, "count motzkin --n 9200 --amplitude 40")
    # each of the 2^n direction vectors counts like the forward one
    assert _count(capsys, "count generic --L 40 --n 9200") == triangular << 9200
    # the generic count against the DP, which reads neither the kernel nor the shift
    generic = _count(capsys, "count generic --L 2 --n 8500")
    assert generic > 10**4300
    assert generic == lattice.count_generic(2, 2, lattice.origin(2), 8500)
    bicolored = _count(capsys, "count bicolored --L 4 --p 4000 --q 4000")
    assert bicolored > 10**5000
    paths = _count(capsys, "count motzkin --n 8000 --amplitude 4")
    assert bicolored == math.comb(8000, 4000) * paths
    assert sys.get_int_max_str_digits() == limit  # the process limit is left alone


def test_pyramid_and_waffle_counts_past_the_digit_limit_of_str(capsys):
    # the CLI's cell sum against the pyramid DP; at the corner C(z) is the one
    # cell anchored at (0, 0), so the waffle count from there is the same number
    pyramid = _count(capsys, "count pyramid --L 8 --n 8300")
    assert pyramid > 10**4300
    assert pyramid == pyramid3d.count_pyramid_paths(8, 8300, lattice.origin(8, 3))
    assert _count(capsys, "count waffle --L 8 --n 8300") == pyramid


@pytest.mark.parametrize(
    "argv",
    ["count motzkin --n 3 --amplitude {big}", "count triangular --L 3 --n -{big}",
     "enumerate motzkin --n 2 --cap {big}", "sample forward --n 2 --seed {big}",
     "pyramid gf --L {big}", "map --L {big} UD", "scaffolding --L 2 --seed +{big}",
     "gf --L 2 --terms {big}", "verify --max-L {big}"],
)
def test_oversized_integer_flags_are_too_large(capsys, argv):
    argv = argv.format(big="7" * 4400).split()
    flag = argv[next(i for i, a in enumerate(argv) if a.endswith("7" * 4400)) - 1]
    code, human, doc = run(capsys, *argv)
    assert code == 2 and human == [] and doc["ok"] is False
    assert f"argument {flag}: value too large (4400 digits)" in doc["error"]
    assert len(doc["error"]) < 100  # the digits are not echoed


@pytest.mark.parametrize(
    "argv, code, error",
    [("count triangular --L 3 --start 0,0,{big}", 1, "bad point: value too large (4400 digits)"),
     ("profile --point 0,-{big},1", 1, "bad point: value too large (4400 digits)"),
     ("pyramid map --L 2 --cell {big},0 --walk N", 1, "bad point: value too large (4400 digits)"),
     ("map --method random:{big} --L 2 UD", 2,
      "triwalks map: argument --method: value too large (4400 digits)"),
     ("map --direction t2m --L 3 s{big}", 1, "bad step token: value too large (4400 digits)")],
)
def test_oversized_integers_inside_string_flags_are_too_large(capsys, argv, code, error):
    got, _, doc = run(capsys, *argv.format(big="7" * 4400).split())
    assert (got, doc["ok"], doc["error"]) == (code, False, error)  # no digit is echoed


# one small run of each subcommand form that README.md does not show
UNSHOWN_ARGVS = [
    "count generic --d 4 --L 2 --n 2",
    "count motzkin --n 4 --amplitude 3 --start-height 1",
    "count bicolored --L 3 --p 2 --q 1",
    "count waffle --L 3 --n 4",
    "count pyramid --L 2 --n 3 --orientation B",
    "count triangular --d 4 --L 2 --dv FBF",
    "enumerate motzkin --n 3 --amplitude 2",
    "map --method omega --direction t2m --L 3 's1 s1 s2 s3'",
    "map --method random:5 --direction t2m --L 4 's1 s1 s2'",
    "map --scaffolding-file scaf.json --direction t2m --L 4 's1 s2'",
    "map --method trapezium --bicolored one --L 3 UfD",
    "sample motzkin --n 4 --amplitude 3 --seed 1",
    "pyramid count --L 2 --n 4",
    "pyramid gf --L 2 --terms 4",
]

# public names that no command reaches
NOT_REACHED = {
    # library entry points without a command
    "flips.FlipEvent.to_json", "flips.last_step_flip", "flips.swap_flip",
    "flips.transform_with_trace", "lattice.enumerate_generic", "motzkin.MotzkinWord.to_word",
    "profiles.CheckResult.summary", "pyramid3d.anchored_region",
    "scaffold2d.RandomScaffolding.to_json", "scaffold2d.TrapeziumScaffolding.case",
    # kept because the benchmark's tracer wraps them by name: three wrappers,
    # `dumps`, since `scaffolding` writes its file by `dump`, and `loads` and
    # `from_json`, since `--scaffolding-file` reads its file by `load`
    "scaffold2d.build_random_scaffolding", "scaffold2d.trapezium_delta",
    "scaffold2d.trapezium_scaffolding", "scaffold2d.RandomScaffolding.dumps",
    "scaffold2d.RandomScaffolding.loads", "scaffold2d.RandomScaffolding.from_json",
    # abstract methods, overridden by both scaffoldings
    "scaffold2d.Scaffolding.delta", "scaffold2d.Scaffolding.delta_inv",
    # reached only when a check fails
    "profiles.CheckResult.counterexample", "profiles.CheckResult.fail",
}


def _public_functions():
    """code object -> dotted name, for every public function of the package
    and every public method or property of its public classes."""
    import importlib
    import inspect
    import pkgutil

    import triwalks

    codes = {}
    for info in pkgutil.iter_modules(triwalks.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"triwalks.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr is not None and attr.startswith("_"):
                    continue
                if hasattr(member, "cache_clear"):
                    member.cache_clear()  # a cached function runs only on a miss
                for unwrap in ("__func__", "fget", "func", "__wrapped__"):
                    member = getattr(member, unwrap, member)
                if inspect.isfunction(member):
                    dotted = f"{info.name}.{name}" + (f".{attr}" if attr else "")
                    codes[member.__code__] = dotted
    return codes


def test_every_operation_is_reachable(tmp_path, monkeypatch, capsys):
    # run the README examples, a shrunk verify --suite all and the forms the
    # README does not show under sys.setprofile: together they reach every
    # public function and method, except the names in NOT_REACHED, which
    # none of them reaches
    import shlex
    import sys

    codes = _public_functions()
    assert NOT_REACHED <= set(codes.values())
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "readme_cli.json").read_text())
    argvs = [case["argv"] for case in golden]
    argvs += [["verify", "--suite", "all", "--max-L", "3", "--max-n", "3"]]
    argvs += [shlex.split(argv) for argv in UNSHOWN_ARGVS]
    monkeypatch.chdir(tmp_path)  # `scaffolding --out scaf.json` writes here
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    reached = set()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])

    for argv in argvs:
        sys.setprofile(profiler)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, (argv, capsys.readouterr())
    assert reached == set(codes.values()) - NOT_REACHED


# a small run of each command that serves pyramid3d, with the pyramid3d
# functions it must reach
PYRAMID_ROW_ARGVS = {
    "pyramid count": ("pyramid count --L 3 --n 4", {"forward_count"}),
    "count waffle": ("count waffle --L 3 --n 4", {"count_waffle_walks"}),
    "pyramid map": ("pyramid map --L 4 --cell 0,0 --walk ENSWEENS", {"waffle_to_pyramid"}),
    "gf": ("gf --L 3 --terms 5", {"pyramid_gf_coefficients"}),
    "verify --suite pyramid": (
        "verify --suite pyramid --max-L 2 --max-n 2",
        {"count_pyramid_paths", "profile3d", "anchor", "diamond_delta", "reflection_count"},
    ),
}


def _reached(argv, codes, capsys):
    """Run argv under sys.setprofile; return the names in codes it calls."""
    import sys

    reached = set()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])

    sys.setprofile(profiler)
    try:
        code = cli.main(argv.split())
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr()
    return reached


@pytest.mark.parametrize("command", sorted(PYRAMID_ROW_ARGVS))
def test_pyramid_rows_are_reached_by_their_command(command, capsys):
    from triwalks import pyramid3d

    argv, names = PYRAMID_ROW_ARGVS[command]
    assert argv.startswith(command + " ")
    codes = {getattr(pyramid3d, name).__code__: name for name in names}
    assert _reached(argv, codes, capsys) == names


# the DP functions that the served counts no longer reach, with a small run
# of the command that still reaches each
DP_ROW_ARGVS = {
    "lattice.count_paths": "verify --suite counts --max-L 2 --max-n 2",
    "lattice.count_generic": "count generic --d 4 --L 2 --n 2",
}


@pytest.mark.parametrize("dotted", sorted(DP_ROW_ARGVS))
def test_dp_rows_are_reached_by_their_command(dotted, capsys):
    code_obj = getattr(lattice, dotted.split(".")[1]).__code__
    assert _reached(DP_ROW_ARGVS[dotted], {code_obj: dotted}, capsys) == {dotted}


def test_scaffolding_file_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, human, doc = run(capsys, "scaffolding", "--L", "4", "--seed", "11")
    assert code == 0
    path = doc["outputs"]["file"]
    assert path.startswith(str(tmp_path))
    # replay bit for bit
    _, _, a = run(capsys, "map", "--scaffolding-file", path, "--direction", "m2t",
                  "--L", "4", "UFDF")
    _, _, b = run(capsys, "map", "--method", "random:11", "--direction", "m2t",
                  "--L", "4", "UFDF")
    assert a["outputs"] == b["outputs"]
    # the saved file validates
    code, human, doc = run(capsys, "verify", "--scaffolding-file", path)
    assert code == 0 and doc["ok"]


@pytest.mark.parametrize("word", ["F", "FF"])
@pytest.mark.parametrize("flags", [["--direction", "m2t"], ["--bicolored", "two"]])
def test_scaffolding_file_step_off_the_triangle_is_one_error_document(tmp_path, capsys,
                                                                      flags, word):
    # at (0, 0, 1) the file steps s2, off the triangle of side 1: as the last
    # letter, or before a lookup that then fails
    from triwalks.scaffold2d import RandomScaffolding

    doc = RandomScaffolding(1, 0).to_json()
    doc["tables"]["0,0,1"][0]["out_step"] = "s2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, human, rep = run(capsys, "map", "--scaffolding-file", str(bad), *flags,
                           "--L", "1", word)
    assert code == 1 and human == []
    assert rep["ok"] is False and rep["error"] == "left the triangle of side 1"


def test_verify_rejects_corrupted_scaffolding(tmp_path, capsys):
    import json as _json
    from triwalks.scaffold2d import RandomScaffolding

    doc = RandomScaffolding(3, 5).to_json()
    recs = doc["tables"]["0,0,3"]
    recs[0]["out_step"] = recs[-1]["out_step"]
    recs[0]["out_cell"] = recs[-1]["out_cell"]
    bad = tmp_path / "bad.json"
    bad.write_text(_json.dumps(doc))
    code, human, rep = run(capsys, "verify", "--scaffolding-file", str(bad))
    assert code != 0 and rep["ok"] is False
    assert rep["outputs"]["violations"]


# one record of a valid file with a field outside the schema: a step outside
# U/F/D, an out_step outside s1/s2/s3, a cell that is not a pair of integers
BAD_RECORDS = {"step": ("step", "X"), "out_step_minus": ("out_step", "s-1"),
               "out_step_9": ("out_step", "s9"), "short_cell": ("cell", [0]),
               "str_out_cell": ("out_cell", ["1", "0"])}
# a valid file of side L with one change at the document level: L = 1 as
# true, or a table keyed by a point outside the triangle
BAD_DOCUMENTS = {"bool_L": (1, "L", True), "outside_point": (3, "9,9,9", [])}
# files that are no JSON document this parser reads: nested past its
# recursion limit, or not UTF-8
BAD_BYTES = {"deep_nesting": b"[" * 100000 + b"]" * 100000, "not_utf8": b'\xff\xfe{"L": 3}'}


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--L", "3", "--scaffolding-file", "{missing}", "UFD"],
        ["verify", "--scaffolding-file", "{missing}"],
        ["map", "--L", "3", "--scaffolding-file", "{bad}", "UFD"],
        ["verify", "--scaffolding-file", "{bad}"],
        ["scaffolding", "--L", "3", "--seed", "1", "--out", "{missing_dir}"],
    ] + [
        argv
        for name in [*BAD_RECORDS, *BAD_DOCUMENTS, *BAD_BYTES]
        for argv in (["map", "--L", "3", "--scaffolding-file", "{%s}" % name, "UFD"],
                     ["verify", "--scaffolding-file", "{%s}" % name])
    ],
    ids=["map-missing", "verify-missing", "map-no-tables", "verify-no-tables", "out-missing-dir"]
    + [f"{cmd}-{name}" for name in [*BAD_RECORDS, *BAD_DOCUMENTS, *BAD_BYTES]
       for cmd in ("map", "verify")],
)
def test_unusable_scaffolding_files_are_one_error_document(tmp_path, capsys, argv):
    from triwalks.scaffold2d import RandomScaffolding

    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": 1}')
    paths = {"missing": tmp_path / "nonexistent.json", "bad": bad,
             "missing_dir": tmp_path / "nonexistent" / "x.json"}
    for name, (field, value) in BAD_RECORDS.items():
        doc = RandomScaffolding(3, 5).to_json()
        doc["tables"]["0,0,3"][0][field] = value
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for name, (L, key, value) in BAD_DOCUMENTS.items():
        doc = RandomScaffolding(L, 5).to_json()
        (doc if key == "L" else doc["tables"])[key] = value
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for name, data in BAD_BYTES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    argv = [a.format(**paths) for a in argv]
    code, human, doc = run(capsys, *argv)
    assert code == 2 and human == []
    assert doc["ok"] is False and "scaffolding" in doc["error"]
    named = next(a for a in argv if a.startswith(str(tmp_path)))
    assert named in doc["error"]


def test_a_byte_that_is_not_utf8_is_named_at_its_place_in_the_file(tmp_path, capsys):
    from triwalks.scaffold2d import RandomScaffolding

    # a 153 KB file, read in chunks of 64 Ki characters: the byte lies in the second
    data = RandomScaffolding(12, 1).dumps().encode()
    bad = tmp_path / "late.json"
    bad.write_bytes(data[:100_000] + b"\xff" + data[100_000:])
    code, human, doc = run(capsys, "verify", "--scaffolding-file", str(bad))
    assert code == 2 and human == []
    assert "can't decode byte 0xff in position 100000" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        "count generic --L 3 --n -2",
        "count pyramid --L 2 --n -3",
        "count waffle --L 2 --n -1",
        "count triangular --L 3 --n -2",
        "count generic --d 3 --L 3 --n -2",
        "count triangular --d 3 --L 3 --n -2",
        "gf --L -1 --terms 3",
        "gf --L 3 --terms -1",
        "pyramid gf --L 3 --terms -1",
        "enumerate motzkin --n -1 --amplitude 3",
        "scaffolding --L -1 --seed 1",
        "count bicolored --L 3 --p 2 --q -1",
        "count bicolored --L 3 --p -1 --q 2",
        "verify --max-L -1",
        "verify --max-n -1",
        "verify --suite omega --max-L 2 --max-n -3",
        "enumerate triangular --L 2 --dv F --cap -1",
        "enumerate motzkin --n 2 --amplitude 2 --cap -1",
        "sample motzkin --n 3 --amplitude -1 --seed 1",
        "enumerate motzkin --n 2 --amplitude -1",
        "count waffle --L -1 --n 2",
        "map --method omega --L -2 UD",
    ],
)
def test_negative_sizes_are_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, human, doc = run(capsys, *argv.split())
    assert code == 1 and human == []
    assert doc["ok"] is False and ">= 0" in doc["error"]
    assert list(tmp_path.iterdir()) == []


def test_bicolored_closed_form_equals_the_interleaving_sum(capsys):
    for L in range(7):
        for p in range(11):
            for q in range(11 - p):
                argv = ("count", "bicolored", "--L", str(L), "--p", str(p), "--q", str(q))
                got = run(capsys, *argv)[2]["outputs"]["count"]
                assert got == str(lattice.count_bicolored_pairs(L, p, q)), (L, p, q)


def test_both_gf_commands_share_one_handler(capsys):
    _, _, a = run(capsys, "gf", "--L", "4", "--terms", "12")
    _, _, b = run(capsys, "pyramid", "gf", "--L", "4", "--terms", "12")
    assert (a["command"], b["command"]) == ("gf", "pyramid gf")
    assert a["inputs"] == b["inputs"] and a["outputs"] == b["outputs"]


# flags that ask for two different bijections, or for a file check and a
# suite grid, and the two flags each error must name
CONFLICTING_FLAGS = {
    "map --method omega --scaffolding-file f.json --L 3 UD": ("--method", "--scaffolding-file"),
    "map --method random:3 --scaffolding-file f.json --L 3 UD":
        ("--method", "--scaffolding-file"),
    "map --method omega --bicolored one --L 3 UD": ("--method", "--bicolored"),
    "map --method trapezium --bicolored two --direction t2m --L 3 UfD":
        ("--direction", "--bicolored"),
    "verify --scaffolding-file f.json --suite omega --max-L 2":
        ("--scaffolding-file", "--suite"),
    "verify --scaffolding-file f.json --max-L 2": ("--scaffolding-file", "--max-L"),
    "verify --scaffolding-file f.json --max-n 0": ("--scaffolding-file", "--max-n"),
}


# the flags each command or family reads: its parser takes these and no others
COMMAND_FLAGS = {
    "count motzkin": {"--n", "--amplitude", "--start-height"},
    "count triangular": {"--L", "--d", "--n", "--dv", "--start"},
    "count generic": {"--L", "--d", "--n", "--start"},
    "count bicolored": {"--L", "--p", "--q"},
    "count pyramid": {"--L", "--n", "--start", "--orientation"},
    "count waffle": {"--L", "--n", "--start"},
    "enumerate motzkin": {"--n", "--amplitude", "--start-height", "--cap"},
    "enumerate triangular": {"--L", "--d", "--dv", "--start", "--cap"},
    "sample motzkin": {"--n", "--amplitude", "--seed"},
    "sample forward": {"--L", "--n", "--seed"},
    "pyramid count": {"--L", "--n"},
    "pyramid gf": {"--L", "--terms"},
    "pyramid map": {"--L", "--cell", "--walk"},
    "map": {"--L", "--method", "--scaffolding-file", "--direction", "--bicolored"},
    "scaffolding": {"--L", "--seed", "--out"},
    "profile": {"--point"},
    "gf": {"--L", "--terms"},
    "verify": {"--suite", "--max-L", "--max-n", "--scaffolding-file"},
}

# command lines that pass one flag their command or family does not read, and
# that flag; at least one for each command and family
UNREAD_FLAGS = {
    "count motzkin --n 3 --amplitude 1 --p -1": "--p",
    "enumerate triangular --L 2 --n -2": "--n",
    "count waffle --L 2 --n 2 --d -2": "--d",
    "sample motzkin --n 3 --amplitude 2 --seed 1 --L -5": "--L",
    "count motzkin --n 3 --amplitude 2 --L 3": "--L",
    "count triangular --L 3 --n 2 --amplitude 2": "--amplitude",
    "count generic --L 3 --n 2 --dv FB": "--dv",
    "count bicolored --L 3 --p 1 --q 1 --n 2": "--n",
    "count pyramid --L 2 --n 3 --d 3": "--d",
    "count waffle --L 2 --n 2 --orientation B": "--orientation",
    "enumerate motzkin --n 2 --amplitude 2 --start 1": "--start",
    "enumerate triangular --L 2 --dv F --start-height 1": "--start-height",
    "sample motzkin --n 3 --amplitude 2 --seed 1 --cap 5": "--cap",
    "sample forward --n 3 --L 3 --seed 1 --amplitude 2": "--amplitude",
    "pyramid count --L 3 --n 4 --terms 5": "--terms",
    "pyramid gf --L 3 --n 4": "--n",
    "pyramid map --L 2 --walk EW --n 2": "--n",
    "map --L 3 --point 0,0,3 UD": "--point",
    "scaffolding --L 2 --seed 1 --terms 3": "--terms",
    "profile --point 0,0,3 --L 3": "--L",
    "gf --L 3 --n 2": "--n",
    "verify --max-L 2 --d 2": "--d",
    # no command reads --scaffolding: --method is the one spelling
    "map --scaffolding random: --L 3 UD": "--scaffolding",
    "map --method trapezium --scaffolding random:3 --L 3 UD": "--scaffolding",
    "map --scaffolding random:3 --scaffolding-file f.json --L 3 UD": "--scaffolding",
}


@pytest.mark.parametrize(
    "argv",
    ["count --n x", "", "frobnicate", "enumerate waffle",
     "count triangular --L 3 --n 2 --dv FFF", "count triangular --L 3 --n 3 --dv F",
     "map --method random:x --L 3 UD", "map --method random: --L 3 UD",
     "map --method bogus --L 3 UD", *CONFLICTING_FLAGS, *UNREAD_FLAGS],
    ids=repr,
)
def test_bad_command_lines_are_one_error_document(capsys, argv):
    code = cli.main(argv.split())
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(out) == 1
    doc = json.loads(out[0])
    assert doc["ok"] is False and doc["error"].startswith("triwalks")
    for flag in CONFLICTING_FLAGS.get(argv, ()):
        assert f"argument {flag}" in doc["error"]
    if argv in UNREAD_FLAGS:
        assert f"unrecognized arguments: {UNREAD_FLAGS[argv]} " in doc["error"]


def _commands(parser, prefix=()):
    """The command lines that name one handler: each command, or each family
    of a command that has families."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(prefix)]
    return [c for name, p in subs[0].choices.items() for c in _commands(p, (*prefix, name))]


def test_help_is_not_an_error(capsys):
    assert cli.main(["--help"]) == 0
    assert '"ok"' not in capsys.readouterr().out
    # each command's or family's help lists the flags it reads, and no others
    assert sorted(_commands(cli.build_parser())) == sorted(COMMAND_FLAGS)
    for command, flags in COMMAND_FLAGS.items():
        assert cli.main([*command.split(), "--help"]) == 0
        out = capsys.readouterr().out
        assert '"ok"' not in out and f"usage: triwalks {command} " in out
        assert set(re.findall(r"--[\w-]+", out)) == flags | {"--help"}, command


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path; the test reads it and edits nothing."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_wraps_and_restores_every_name():
    # the traced benchmark run wraps public names by string: a deleted or
    # renamed one fails install, and uninstall must put every original back
    import importlib
    import types

    import triwalks

    spans = _perfbench_module("spans")
    tw = types.SimpleNamespace(package=triwalks, **{
        layer: importlib.import_module(f"triwalks.{layer}") for layer in spans.LAYERS})
    owners = [vars(tw)[key] for key in vars(tw)]
    owners += [cls for m in owners for cls in vars(m).values()
               if isinstance(cls, type) and cls.__module__ == m.__name__]

    def snapshot():
        return ({(id(o), key): value for o in owners for key, value in vars(o).items()},
                {key: list(checks) for key, checks in tw.verify.SUITES.items()})

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install(tw)
    try:
        for layer, quals in spans.SPANNED.items():
            for qual in quals:
                owner = getattr(tw, layer)
                for part in qual.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), f"{layer}.{qual}"
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after[0].keys() == before[0].keys() and after[1] == before[1]
    assert all(after[0][key] is value for key, value in before[0].items())


def test_every_perfbench_command_line_parses():
    # a flag that a benchmark op passes but its family no longer declares would
    # fail that op and lower the benchmark's ok_ratio
    inputs, scaffolds = _perfbench_module("inputs"), _perfbench_module("scaffolds")
    parsed = []

    def parse(argv):
        parsed.append(cli.build_parser().parse_args(argv))
        return 0

    for seed in (1, 2, 3):
        unique, files = inputs._Unique(), scaffolds.scaffold_files(seed, "out")
        assert scaffolds.write_scaffolds(parse, files) is None
        for pass_index in range(3):
            for op in (inputs.count_ops(seed, pass_index, unique)
                       + inputs.map_ops(seed, pass_index, files)):
                parse(op["argv"])
    assert len(parsed) > 1000 and all(callable(args.fn) for args in parsed)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "triangular", "--L", "1", "--dv", "F" * 1100],
        ["enumerate", "motzkin", "--n", "1100", "--amplitude", "1"],
    ],
    ids=["triangular", "motzkin"],
)
def test_enumeration_past_the_recursion_limit(capsys, argv):
    code, human, doc = run(capsys, *argv)
    assert code == 0 and doc["ok"] is True
    assert doc["outputs"]["count"] == 1 and len(doc["outputs"]["items"][0]) >= 1100


def test_handlers_return_their_answer_and_print_nothing(tmp_path, monkeypatch, capsys):
    # the handler contract: (answer, human_lines), with the document's inputs
    # and outputs in the answer; only main prints
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "readme_cli.json").read_text())
    monkeypatch.chdir(tmp_path)  # `scaffolding --out scaf.json` writes here
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for case in golden:
        args = cli.build_parser().parse_args(case["argv"])
        answer, human_lines = args.fn(args)
        assert capsys.readouterr() == ("", ""), case["argv"]
        assert all(isinstance(line, str) for line in human_lines)
        for key in ("inputs", "outputs"):
            assert json.loads(json.dumps(answer[key])) == case["doc"][key], case["argv"]


# -- argv fuzz: every run is one JSON document and an exit code in {0, 1, 2}

def _fuzz_strategies():
    from hypothesis import strategies as st

    size = st.integers(-2, 5).map(str)
    junk = st.sampled_from(["x", "", "1.5", "-"])
    point = st.lists(st.integers(-1, 4), max_size=5).map(lambda c: ",".join(map(str, c)))
    steps = st.lists(st.sampled_from(["s1", "s2", "s3", "-s1", "-s2", "-s3", "s0", "s4", "s"]),
                     max_size=6).map(" ".join)
    files = st.sampled_from(["{dir}/valid.json", "{dir}/off.json", "{dir}/junk.json",
                             "{dir}/cut.json", "{dir}/not_utf8.json", "{dir}/missing.json"])
    # the values of each flag, whichever command reads it
    values = {
        "--n": size, "--amplitude": size, "--start-height": size, "--L": size, "--d": size,
        "--dv": st.text("FBX", max_size=5), "--start": point | junk, "--p": size, "--q": size,
        "--orientation": st.sampled_from("FB"), "--cap": size, "--seed": size | junk,
        "--terms": size, "--cell": point | junk, "--walk": st.text("NSEWX", max_size=6),
        "--point": point | junk, "--scaffolding-file": files,
        "--direction": st.sampled_from(["m2t", "t2m"]),
        "--bicolored": st.sampled_from(["one", "two"]),
        # no command reads --scaffolding: it is drawn only as an unread flag
        **dict.fromkeys(["--method", "--scaffolding"], st.sampled_from(
            ["omega", "trapezium", "random:3", "random:-1", "random:x", "random:", "bogus"])),
        "--out": st.sampled_from(["{dir}/out.json", "{dir}/missing/x.json"]),
        "--max-L": st.integers(-2, 2).map(str), "--max-n": st.integers(-2, 2).map(str),
        "--suite": st.sampled_from(["counts", "flips", "omega", "profiles", "pyramid"]),
    }
    # always given: the required flags, a small verify grid, and a file under
    # the test's directory. The all and scaffold suites draw samples at fixed
    # sizes (about 0.9 s a run); test_verify_passes_on_shrunk_grids runs them
    always = {
        "map": {"--L"}, "scaffolding": {"--L", "--seed", "--out"},
        "sample motzkin": {"--n", "--seed"}, "sample forward": {"--n", "--seed"},
        "profile": {"--point"}, "gf": {"--L"}, "pyramid count": {"--L"},
        "pyramid gf": {"--L"}, "pyramid map": {"--L"}, "verify": {"--max-L", "--max-n", "--suite"},
    }

    @st.composite
    def argvs(draw):
        """An argv, and the flag it passes that its family does not read, or None."""
        key = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
        argv = key.split()
        if key == "map":
            argv.append(draw(st.text("UFDufdX", max_size=8) | steps))
        for flag in sorted(COMMAND_FLAGS[key]):
            if flag in always.get(key, ()) or draw(st.booleans()):
                argv += [flag, draw(values[flag])]
        unread = None
        if draw(st.integers(0, 4)) == 0:
            unread = draw(st.sampled_from(sorted(values.keys() - COMMAND_FLAGS[key])))
            argv += [unread, draw(values[unread])]
        return argv, unread

    return argvs()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from triwalks.scaffold2d import RandomScaffolding

    base = tmp_path_factory.mktemp("fuzz")
    valid = RandomScaffolding(3, 5).dumps()
    (base / "valid.json").write_text(valid)
    # files that the point-by-point read gives up on and reads again whole
    (base / "cut.json").write_text(valid[:len(valid) // 2])
    (base / "not_utf8.json").write_bytes(valid[:100].encode() + b"\xff" + valid[100:].encode())
    off = RandomScaffolding(1, 0).to_json()
    off["tables"]["0,0,1"][0]["out_step"] = "s2"  # steps off the triangle
    (base / "off.json").write_text(json.dumps(off))
    (base / "junk.json").write_text('{"bad": 1}')
    return base


def test_argv_fuzz_gives_one_document_and_a_known_exit_code(fuzz_dir):
    import contextlib
    import io

    from hypothesis import given, settings

    @settings(max_examples=1000, deadline=None, database=None)
    @given(_fuzz_strategies())
    def one_run(drawn):
        argv, unread = drawn
        argv = [a.format(dir=fuzz_dir) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        lines = out.getvalue().splitlines()
        assert code in (0, 1, 2), argv
        assert [line for line in lines if line.startswith("{")] == lines[-1:], argv
        doc = json.loads(lines[-1])
        assert doc["ok"] is (code == 0), argv
        assert unread is None or code == 2, argv

    one_run()
