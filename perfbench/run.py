#!/usr/bin/env python3
"""The triwalks benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload count|map|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else. One process, one client, a closed loop: each
op starts when the previous one has returned. Ops go through
``triwalks.cli.main(argv)`` in-process (the JSON document a user gets) or,
on ``verify``, through the public ``verify.check_*`` functions. Every answer
is checked outside the timed region (see ``oracles.py``).

A pass is one fixed op list drawn from the seed. Each workload runs a fixed
number of passes (``PASSES``), each with fresh inputs, so a run's inputs
depend on the seed alone and never on how fast the program is. They fit in
40 s at the speed the benchmark was defined at; ``--seconds`` only caps a run
that has become far slower: no pass starts once that much time is spent.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced pass over the same inputs as an untraced one, with the
difference between the two as the tracing overhead. Files the run writes
(saved scaffoldings, the span dump) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from oracles import Oracle  # noqa: E402
from scaffolds import scaffold_files, write_scaffolds  # noqa: E402
from spans import DP_ENTRIES, Tracer  # noqa: E402

WORKLOADS = ("count", "map", "verify")
PASSES = {"count": 4, "map": 4, "verify": 1}
OUTDIR = ".perfbench_out"
FLOORS = os.path.join(HERE, "verify_floors.json")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# reported in place of a percentile that lands on a failed (infinitely slow) op
INFINITE_S = 1e9


class Broken(Exception):
    """The checkout cannot be benchmarked."""


def load_package(root):
    """Import triwalks from ``root/src`` and return its modules."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "triwalks", "cli.py")):
        raise Broken(f"no triwalks sources under {src}")
    sys.path.insert(0, src)
    import triwalks
    from triwalks import cli, flips, lattice, motzkin, omega, profiles, pyramid3d, scaffold2d, verify

    if not os.path.abspath(triwalks.__file__).startswith(src + os.sep):
        raise Broken(f"imported triwalks from {triwalks.__file__}, not from {src}")
    return SimpleNamespace(package=triwalks, cli=cli, flips=flips, lattice=lattice,
                           motzkin=motzkin, omega=omega, profiles=profiles,
                           pyramid3d=pyramid3d, scaffold2d=scaffold2d, verify=verify)


def check_order(verify):
    """Check function names in ``run_suite("all")`` order."""
    return [fn.__name__ for suite in sorted(verify.SUITES) for fn in verify.SUITES[suite]]


def workload_setup(tw, workload, seed, outdir):
    """What the workload does before its first op; returns the map's saved files."""
    if workload != "map":
        return []
    os.makedirs(outdir, exist_ok=True)
    files = scaffold_files(seed, outdir)
    error = write_scaffolds(tw.cli.main, files)
    if error:
        raise Broken(error)
    return files


# -- one op -----------------------------------------------------------------------

def run_cli(main, argv):
    """Call the CLI in-process; (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        error = None
    except Exception as exc:  # a traceback is a failed op, not the end of the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue(), error or err.getvalue().strip()


def parse_document(stdout):
    """The one JSON document a CLI call prints on its last line, or a reason."""
    lines = stdout.rstrip("\n").split("\n")
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    for line in lines[:-1]:
        if line.startswith("{"):
            try:
                json.loads(line)
            except ValueError:
                continue
            return None, "more than one JSON document"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return None, f"not ok: {doc.get('error') if isinstance(doc, dict) else doc!r}"
    return doc, None


def json_bytes(stdout, doc):
    """Size of the printed JSON document, less its run-to-run varying "timing" value."""
    size = len(stdout.rstrip("\n").rsplit("\n", 1)[-1].encode())
    if doc is not None:
        size -= len(json.dumps(doc["timing"]).encode())
    return size


class Result:
    """Latencies and failures of a run; wrong answers also clear ``correct``."""

    def __init__(self):
        self.latencies = []
        self.pass_walls = []
        self.failures = []
        self.correct = True
        self.json_bytes = 0

    def fail(self, op, reason, wrong=False):
        self.failures.append((op, reason))
        self.latencies[-1] = math.inf
        if wrong:
            self.correct = False


def run_cli_pass(tw, ops, oracle, result, tracer=None, reference=None):
    """Run one pass of CLI ops; check each answer after the clock has stopped."""
    main = tw.cli.main
    docs = []
    wall = 0.0
    for op in ops:
        if tracer is None:
            dt, code, stdout, error = run_cli(main, op["argv"])
        else:
            dt, code, stdout, error = tracer.root(run_cli, main, op["argv"])
        wall += dt
        result.latencies.append(dt)
        docs.append(None)
        doc, why = parse_document(stdout)
        result.json_bytes += json_bytes(stdout, doc)
        if code != 0:
            result.fail(op["kind"], f"exit code {code}: {error}")
            continue
        if why:
            result.fail(op["kind"], why)
            continue
        docs[-1] = doc["outputs"]
        if reference is not None:
            bad = None if doc["outputs"] == reference[len(docs) - 1] else "differs from untraced"
        else:
            bad = oracle.check(op, doc)
        if bad:
            result.fail(op["kind"], f"wrong answer: {bad}", wrong=True)
    result.pass_walls.append(wall)
    return docs


def run_verify_pass(tw, names, floors, result, tracer=None):
    """One op per check, in ``run_suite("all")`` order."""
    wall = 0.0
    for name in names:
        fn = getattr(tw.verify, name)
        t0 = time.perf_counter()
        try:
            res = fn() if tracer is None else tracer.root(fn)
            error = None
        except Exception as exc:
            res, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        wall += dt
        result.latencies.append(dt)
        if error:
            result.fail(name, error)
        elif not res.ok:
            result.fail(name, f"check failed: {res.counterexample!r}", wrong=True)
        elif res.checked < floors.get(name, 0):
            result.fail(name, f"{res.checked} cases < floor {floors[name]}", wrong=True)
    result.pass_walls.append(wall)


def make_ops(workload, seed, pass_index, unique, files):
    if workload == "count":
        return inputs.count_ops(seed, pass_index, unique)
    return inputs.map_ops(seed, pass_index, files)


# -- set-up and import probes ---------------------------------------------------------

def setup_seconds(workload, seed, root):
    """Median time from launching a fresh interpreter until the first op can start."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise Broken(f"set-up probe failed: {err.strip()}")
        times.append(dt)
    return statistics.median(times)


def import_seconds(root):
    """Median cumulative import times of ``triwalks.cli`` and ``triwalks.pyramid3d``."""
    cli_s, pyr_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import triwalks.cli"],
            cwd=root, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli_s.append(cumulative["triwalks"] + cumulative["triwalks.cli"])
        pyr_s.append(cumulative["triwalks.pyramid3d"])
    return statistics.median(cli_s), statistics.median(pyr_s)


# -- metrics ----------------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between order statistics; infinite if it touches a failure."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(vals[hi]):
        return math.inf
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def finite(x):
    return INFINITE_S if math.isinf(x) else x


def end_to_end(result, setup_s):
    lat = result.latencies
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_s": (statistics.median(result.pass_walls), "s", len(result.pass_walls)),
        "op_p50_s": (finite(percentile(lat, 0.5)), "s", len(lat)),
        "op_p90_s": (finite(percentile(lat, 0.9)), "s", len(lat)),
        "ok_ratio": (1 - len(result.failures) / len(lat), "1", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tracer, names, untraced_wall, traced, import_s):
    t = tracer
    cells = t.counters["lattice.dp_cells"]
    dp_self = sum(t.name_self_s[n] for n in DP_ENTRIES)
    inverses = t.counters["scaffold2d.trapezium_inverses"]
    layer_self = sum(v for k, v in t.self_s.items() if k != "bench")
    traced_wall = traced.pass_walls[0]
    m = {
        "lattice.calls": (t.calls["lattice"], "count"),
        "lattice.self_s": (t.self_s["lattice"], "s"),
        "lattice.dp_cells": (cells, "count"),
        "lattice.ns_per_cell": (dp_self / cells * 1e9 if cells else 0.0, "ns"),
        "pyramid3d.calls": (t.calls["pyramid3d"], "count"),
        "pyramid3d.self_s": (t.self_s["pyramid3d"], "s"),
        "pyramid3d.dp_cells": (t.counters["pyramid3d.dp_cells"], "count"),
        "pyramid3d.import_s": (import_s[1], "s"),
        "motzkin.calls": (t.calls["motzkin"], "count"),
        "motzkin.self_s": (t.self_s["motzkin"], "s"),
        "motzkin.table_cells": (t.counters["motzkin.table_cells"], "count"),
        "scaffold2d.calls": (t.calls["scaffold2d"], "count"),
        "scaffold2d.self_s": (t.self_s["scaffold2d"], "s"),
        "scaffold2d.lookups": (t.counters["scaffold2d.lookups"], "count"),
        "scaffold2d.rule_evals_per_inverse": (
            t.counters["scaffold2d.inverse_rule_evals"] / inverses if inverses else 0.0, "1"),
        "flips.calls": (t.calls["flips"], "count"),
        "flips.self_s": (t.self_s["flips"], "s"),
        "flips.letters": (t.counters["flips.letters"], "count"),
        "omega.calls": (t.calls["omega"], "count"),
        "omega.max_depth": (t.max_depth, "count"),
        "omega.self_s": (t.self_s["omega"], "s"),
        "profiles.calls": (t.calls["profiles"], "count"),
        "profiles.self_s": (t.self_s["profiles"], "s"),
        "cli.self_s": (t.self_s["cli"], "s"),
        "cli.json_bytes": (traced.json_bytes, "B"),
        "cli.import_s": (import_s[0], "s"),
    }
    span_s = {}
    for _, _, name, start, end in t.spans:
        if name.startswith("verify.check_"):
            span_s[name] = span_s.get(name, 0.0) + end - start
    for name in names:
        key = name[len("check_"):]
        m[f"verify.{key}_s"] = (span_s.get(f"verify.{name}", 0.0), "s")
    m["bench.self_s"] = (t.self_s["bench"], "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.unaccounted_s"] = (traced_wall - layer_self - t.self_s["bench"], "s")
    return {k: (v, unit, 1) for k, (v, unit) in m.items()}


# -- the run -------------------------------------------------------------------------

def measure(tw, workload, seed, seconds, files, oracle):
    """The workload's fixed number of untraced passes, unless ``seconds`` run out first."""
    result = Result()
    unique = inputs._Unique()
    names = check_order(tw.verify)
    floors = load_floors()
    t0 = time.perf_counter()
    for pass_index in range(PASSES[workload]):
        if pass_index and time.perf_counter() - t0 > seconds:
            print(f"perfbench: --seconds {seconds} spent after {pass_index} passes", file=sys.stderr)
            break
        if workload == "verify":
            run_verify_pass(tw, names, floors, result)
        else:
            run_cli_pass(tw, make_ops(workload, seed, pass_index, unique, files), oracle, result)
    return result


def measure_traced(tw, workload, seed, files, oracle, tracer):
    """One untraced pass, then the same pass traced; returns both results."""
    names = check_order(tw.verify)
    floors = load_floors()
    plain, traced = Result(), Result()
    if workload == "verify":
        run_verify_pass(tw, names, floors, plain)
    else:
        ops = make_ops(workload, seed, 0, inputs._Unique(), files)
        reference = run_cli_pass(tw, ops, oracle, plain)
    tracer.install(tw)
    tracer.active = True
    try:
        if workload == "verify":
            run_verify_pass(tw, names, floors, traced, tracer)
        else:
            run_cli_pass(tw, ops, oracle, traced, tracer, reference)
    finally:
        tracer.active = False
        tracer.uninstall()
    return plain, traced


def load_floors():
    with open(FLOORS) as fh:
        return json.load(fh)["checked"]


def report(metrics, result, extra_lines=()):
    for line in extra_lines:
        print(line)
    for op, reason in result.failures[:20]:
        print(f"failed: {op}: {reason}")
    attempted = len(result.latencies)
    print(f"attempted {attempted} ops, failed {len(result.failures)} "
          f"(fail_ratio {len(result.failures) / attempted:.4f})")
    for name, (value, unit, n) in metrics.items():
        note = ""
        if name == "op_p90_s" and n // 10 < 10:
            note = f", only {n // 10} ops beyond it: not a tail estimate"
        print(f"{name} = {value!r} {unit} (n={n}{note})")
    doc = {
        "correct": result.correct,
        "attempted": attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(doc))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    outdir = os.path.join(root, OUTDIR)
    try:
        tw = load_package(root)
        if args.trace:
            import_s = import_seconds(root)
        else:
            setup_s = setup_seconds(args.workload, args.seed, root)
        files = workload_setup(tw, args.workload, args.seed, outdir)
    except Broken as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    oracle = Oracle(tw)
    if not args.trace:
        result = measure(tw, args.workload, args.seed, args.seconds, files, oracle)
        report(end_to_end(result, setup_s), result)
        return 0

    tracer = Tracer()
    plain, traced = measure_traced(tw, args.workload, args.seed, files, oracle, tracer)
    os.makedirs(outdir, exist_ok=True)
    dump = os.path.join(outdir, f"spans-{args.workload}-{args.seed}.tsv")
    tracer.write(dump)
    metrics = per_layer(tracer, check_order(tw.verify), plain.pass_walls[0], traced, import_s)
    traced.correct = traced.correct and plain.correct
    traced.failures = plain.failures + traced.failures
    traced.latencies = plain.latencies + traced.latencies
    report(metrics, traced, [f"untraced wall_s = {plain.pass_walls[0]!r} s",
                             f"{len(tracer.spans)} spans written to {dump}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
