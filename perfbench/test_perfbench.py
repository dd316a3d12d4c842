"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import scaffolds  # noqa: E402
from spans import Tracer  # noqa: E402

TW = run.load_package(ROOT)


def _ops(seed, pass_index=0, unique=None):
    unique = unique or inputs._Unique()
    files = scaffolds.scaffold_files(seed, ".perfbench_out")
    return (inputs.count_ops(seed, pass_index, unique)
            + inputs.map_ops(seed, pass_index, files))


def test_same_seed_same_inputs():
    a = json.dumps(_ops(5)).encode()
    assert a == json.dumps(_ops(5)).encode()
    assert a != json.dumps(_ops(6)).encode()
    assert scaffolds.scaffold_files(5, "x") == scaffolds.scaffold_files(5, "x")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inputs_are_valid(seed):
    lattice = TW.lattice
    for op in _ops(seed):
        c = op["check"]
        if "word" in c:
            word = c["word"]
            assert oracles.motzkin_problem(word.upper(), c["L"], len(word)) is None, op["kind"]
            assert word in op["argv"]
        if "walk" in c and op["kind"] != "pyramid map":
            L = c["L"]
            lattice.validate_path(L, 2, lattice.origin(L), lattice.parse_steps(c["walk"]))
        if op["kind"] == "pyramid map":
            assert oracles.waffle_problem(c["walk"], c["L"]) is None
        if "start" in c:
            assert min(c["start"]) >= 0 and sum(c["start"]) == c["L"]
        if op["kind"] == "map file m2t":
            assert c["L"] in {L for L, _, _ in scaffolds.scaffold_files(seed, ".perfbench_out")}
    kinds = {op["kind"] for op in _ops(seed)}
    assert {"count triangular", "gf", "map omega t2m", "map bicolored two",
            "sample forward", "pyramid map"} <= kinds


def test_count_queries_never_repeat():
    unique = inputs._Unique()
    ops = inputs.count_ops(9, 0, unique) + inputs.count_ops(9, 1, unique)
    queries = [(op["check"]["L"], op["check"]["n"], op["argv"][op["argv"].index("--dv") + 1])
               for op in ops if op["kind"] == "count triangular"]
    assert len(queries) == len(set(queries)) == 2 * inputs.COUNT_MIX["triangular"]
    others = [tuple(op["argv"]) for op in ops
              if op["kind"] not in ("count triangular", "enumerate triangular",
                                    "enumerate motzkin", "profile")]
    assert len(others) == len(set(others))


def test_oracles_reject_wrong_answers():
    oracle = oracles.Oracle(TW)
    ops = [op for op in _ops(4) if op["kind"] in ("count triangular", "count pyramid",
                                                    "count motzkin", "map trapezium m2t")]
    for op in ops:
        dt, code, stdout, err = run.run_cli(TW.cli.main, op["argv"])
        doc, why = run.parse_document(stdout)
        assert why is None and oracle.check(op, doc) is None, op["kind"]
        out = doc["outputs"]
        if "count" in out:
            out["count"] = str(int(out["count"]) + 1)
        else:
            out["path"] = out["path"].replace("s1", "s2", 1)
        assert oracle.check(op, doc) is not None, op["kind"]


def _traced_counters():
    ops = [op for op in _ops(11) if op["kind"] in (
        "count triangular", "count bicolored", "count waffle", "count motzkin",
        "map trapezium t2m", "map omega m2t", "map bicolored one", "sample forward")]
    small = {}
    for op in ops:
        small.setdefault(op["kind"], op)
    tracer = Tracer()
    result = run.Result()
    tracer.install(TW)
    tracer.active = True
    try:
        run.run_cli_pass(TW, list(small.values()), oracles.Oracle(TW), result, tracer,
                         reference=[None] * len(small))
        tracer.root(TW.verify.check_omega, 3, 4)
    finally:
        tracer.active = False
        tracer.uninstall()
    return (dict(tracer.counters), dict(tracer.calls), tracer.max_depth, result.json_bytes,
            len(tracer.spans))


def test_counters_repeat_exactly():
    first = _traced_counters()
    assert first == _traced_counters()
    counters, calls, depth, json_bytes, _ = first
    for key in ("lattice.dp_cells", "pyramid3d.dp_cells", "motzkin.table_cells",
                "scaffold2d.lookups", "flips.letters"):
        assert counters[key] > 0, key
    assert depth > 1 and json_bytes > 0 and calls["omega"] > 0 and calls["verify"] == 1
    # uninstall restored every original
    assert not hasattr(TW.cli.main, "__wrapped__")
    assert not hasattr(TW.omega.transform, "__wrapped__")
    assert not hasattr(TW.verify.SUITES["omega"][0], "__wrapped__")


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
