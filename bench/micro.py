"""Per-layer timings of ``lattice.move`` and ``lattice.parse_steps``, the
scaffolding transducers (trapezium both ways and bicolored, random both
ways), the forward sampler, the 3d scaffolding, the omega inverse, the
1-D transfer kernel behind the served counts and each of its two engines,
the closed-form generating function, the reflection count of the
pyramid's corner walks, the lattice's points and gathers built afresh,
and the sampler, trapezium, generating-function and pointwise reflection
checks of ``verify``; end-to-end timings of large ``count`` and ``gf``
commands (and of a count at d = 8 that builds its lattice), of ``map``
(both directions and bicolored), ``pyramid map`` and ``sample``, of
saving a random scaffolding, of mapping words and walks by saved files
and of a fresh interpreter that imports the CLI; and the time and memory
of the samples, of the save, of the maps and of reading the files back
(and of refusing one), written to a BENCH_*.json file.

    PYTHONPATH=<parent checkout>/src python bench/micro.py --label parent-1 --out BENCH_21.json
    PYTHONPATH=src python bench/micro.py --label change-1 --out BENCH_21.json
    PYTHONPATH=<parent checkout>/src python bench/micro.py --label parent-2 --out BENCH_21.json
    ...

``triwalks`` is imported from PYTHONPATH, so the same script times any
checkout's ``src/``. Each row is the minimum over REPEATS calls, on inputs
built once from fixed seeds; the ``ONCE_ARGVS`` rows, which take seconds
each, are one call. The run is stored under its label; other labels
already in the output file are kept, so one file holds several rounds of
each side. Alternate the sides, one round each, so that a drift of the host
shows in every pair alike. Standard library only.

The ``cli`` rows run ``cli.main`` in-process with stdout captured, so
they time the command a user runs, whatever code serves it. The ``process``
rows start a new interpreter with the same PYTHONPATH: bare, and importing
``triwalks.cli``; their difference is the import. The ``cli sample``,
``cli scaffolding`` and ``cli map --scaffolding-file`` rows (L = 18 and
25, both directions) and the rows that read a saved scaffolding also store
the peak of memory allocated during one more, untimed call
(``tracemalloc``), in bytes. Those read the L = 25 file's text by
``RandomScaffolding.loads``, the L = 25 and L = 40 files as a command
once read them (the text, then ``loads``) and by ``RandomScaffolding.load``
on the open file, and a copy of the L = 25 file with one syntax error near
its end, which ``load`` refuses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc

from triwalks import cli, lattice, motzkin, omega, pyramid3d, scaffold2d, verify

REPEATS = 5


def best_of(fn, *args, repeats=REPEATS, **kwargs):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return min(times)


def peak_bytes(fn, *args):
    """The peak of memory allocated during one more, untimed call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def waffle_walk(L, n, seed):
    """A walk of n letters inside the waffle of side L from (0, 0) to the
    axis j = 0, each step drawn uniformly among the cardinal steps that stay
    inside and leave no more height than letters left."""
    rng = random.Random(seed)
    pt, letters = (0, 0), []
    for left in reversed(range(n)):
        options = []
        for s in pyramid3d.CARDINAL_ORDER:
            dx, dy = pyramid3d.CARDINAL[s]
            nxt = (pt[0] + dx, pt[1] + dy)
            if pyramid3d.in_waffle(nxt, L) and nxt[1] <= left:
                options.append((s, nxt))
        s, pt = options[rng.randrange(len(options))]
        letters.append(s)
    return "".join(letters)


COUNT_ARGVS = [
    "count triangular --L 40 --n 400",
    "count triangular --L 40 --n 2000",
    "count bicolored --L 4 --p 7 --q 7",
    "count motzkin --n 6000 --amplitude 40",
    "count triangular --d 3 --L 30 --n 400",
    "count pyramid --L 30 --n 400 --start 7,8,9,6",
    "count waffle --L 30 --n 400",
    "count waffle --L 40 --n 10000",
    "count pyramid --L 40 --n 2000 --start 10,10,10,10",
    "count triangular --L 40 --n 10000",
    "count triangular --L 40 --n 30000",
    "count pyramid --L 40 --n 10000",
    "count pyramid --L 40 --n 30000",
    "gf --L 10 --terms 100",
    "gf --L 12 --terms 150",
]

# timed once: on a checkout that steps the counts row by row each takes 10-16 s,
# and on one that evaluates the closed form in fixed point `gf` takes about 4 s
ONCE_ARGVS = [
    "count triangular --L 40 --n 100000",
    "count pyramid --L 40 --n 100000",
    "gf --L 40 --terms 2000",
]

SAMPLE_ARGVS = [
    "sample motzkin --n 6000 --amplitude 40 --seed 1",
    "sample forward --n 6000 --L 40 --seed 1",
]


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"triwalks {' '.join(argv)} failed")


def uncached(fn, *args):
    """``fn(*args)`` with the lattice graph cache emptied first, so that the
    call builds its lattice."""
    lattice._graph.cache_clear()
    return fn(*args)


def read_text_loads(path):
    """The text of a scaffolding file read whole, and then ``loads``."""
    with open(path, encoding="utf-8") as fh:
        return scaffold2d.RandomScaffolding.loads(fh.read())


def load(path):
    """``load`` on the open scaffolding file."""
    with open(path, encoding="utf-8") as fh:
        return scaffold2d.RandomScaffolding.load(fh)


def load_refused(path):
    """``load`` on a file that it must refuse by a ValueError."""
    try:
        load(path)
    except ValueError:
        return
    raise RuntimeError(f"{path} was read")


def moves(pairs):
    move = lattice.move
    for z, step in pairs:
        move(z, step)


def move_pairs(d, calls, seed):
    """``calls`` pairs of a point of the lattice of side 21 in dimension d and
    a step drawn from every step of that dimension."""
    rng = random.Random(seed)
    points = lattice.all_points(21, d)
    steps = [s for j in range(1, d + 2) for s in (j, -j)]
    return [(rng.choice(points), rng.choice(steps)) for _ in range(calls)]


def engine_rows():
    """Both engines of ``lattice.tridiagonal_power`` on a Motzkin strip (one
    start vector, diagonal 1 but 0 at the top) and on the +-1 walker (two
    start vectors, diagonal 0), for N = 3, 13 and 43 entries, at half, once
    and twice the n where the kernel switches engine."""
    out = []
    for N in (3, 13, 43):
        shapes = (("strip", [1] * (N - 1) + [0], [[1] + [0] * (N - 1)]),
                  ("walkers", [0] * N, [[1] + [0] * (N - 1), [0] * (N - 1) + [1]]))
        for kind, diag, vectors in shapes:
            edge = int(lattice._crossover(diag))
            for n in (edge // 2, edge, 2 * edge):
                for engine in ("_packed_sweep", "_power_mod_chi"):
                    out.append((f"lattice.{engine} {kind} N={N} n={n}",
                                {"N": N, "n": n, "diag": kind, "vectors": len(vectors)},
                                best_of(getattr(lattice, engine), diag, n, vectors)))
    return out


def rows():
    out = []
    calls = 100_000
    for d in (2, 3):
        pairs = move_pairs(d, calls, seed=1)
        params = {"d": d, "L": 21, "calls": calls,
                  "pairs": "bench.micro.move_pairs(d, calls, seed=1)"}
        out.append((f"lattice.move d={d} (per call)", params, best_of(moves, pairs) / calls))

    n, L = 10_000, 21
    scaf = scaffold2d.TrapeziumScaffolding(L)
    word = motzkin.uniform_sample(n, L, seed=1)
    walk = scaf.motzkin_to_triangular(word)
    params = {"n": n, "L": L, "word": "uniform_sample(n, L, seed=1)"}
    out.append(("trapezium m2t", params, best_of(scaf.motzkin_to_triangular, word)))
    out.append(("trapezium t2m", params, best_of(scaf.triangular_to_motzkin, walk)))
    rng = random.Random(1)
    colored = motzkin.MotzkinWord(word.steps, colors="".join(rng.choice("bw") for _ in word.steps))
    out.append(("trapezium bicolored two", {**params, "colors": "random.Random(1), one per letter"},
                best_of(scaf.bicolored_to_generic, colored, "two")))
    rand = scaffold2d.RandomScaffolding(L, 3)
    image = rand.motzkin_to_triangular(word)
    rand.triangular_to_motzkin(image)  # builds the inverse tables before the timing
    rparams = {**params, "scaffolding": "RandomScaffolding(L, 3)"}
    out.append(("random:3 m2t", rparams, best_of(rand.motzkin_to_triangular, word)))
    out.append(("random:3 t2m", rparams, best_of(rand.triangular_to_motzkin, image)))
    text = lattice.format_steps(walk)
    out.append(("lattice.parse_steps", {**params, "text": "format_steps(m2t image of word)"},
                best_of(lattice.parse_steps, text)))
    # the map commands of the transducers, one per kind of input
    for argv, slot, given, source in (
            ("map --method trapezium --direction t2m --L 21", "walk", text,
             "format_steps(m2t image of word)"),
            ("map --method trapezium --direction m2t --L 21", "word", word.steps,
             "uniform_sample(n, L, seed=1)"),
            ("map --method trapezium --bicolored two --L 21", "colored", colored.to_word(),
             "word colored by random.Random(1), lowercase for white")):
        out.append((f"cli {argv} <{slot}>", {**params, "argv": f"{argv} <{slot}>", slot: source},
                    best_of(run_cli, [*argv.split(), given])))

    n, L = 4_000, 25
    out.append(("sample_forward_path", {"n": n, "L": L, "seed": 1},
                best_of(scaffold2d.sample_forward_path, L, n, 1)))

    n, L = 4_000, 12
    z = (0, 0, 0, L)
    walk = waffle_walk(L, n, seed=1)
    params = {"n": n, "L": L, "point": list(z), "cell": [0, 0],
              "walk": "bench.micro.waffle_walk(L, n, seed=1)"}
    out.append(("waffle_to_pyramid", params,
                best_of(pyramid3d.waffle_to_pyramid, z, (0, 0), walk)))
    path = pyramid3d.waffle_to_pyramid(z, (0, 0), walk)
    out.append(("pyramid_to_waffle", {**params, "path": "waffle_to_pyramid(point, cell, walk)"},
                best_of(pyramid3d.pyramid_to_waffle, z, path)))
    argv = f"pyramid map --L {L} --cell 0,0 --walk"
    out.append((f"cli {argv} <walk>", {**params, "argv": f"{argv} <walk>"},
                best_of(run_cli, [*argv.split(), walk])))

    n, L = 480, 7
    word = motzkin.uniform_sample(n, L, seed=1)
    out.append(("omega.motzkin_to_forward_exp", {"n": n, "L": L,
                                                 "word": "uniform_sample(n, L, seed=1)"},
                best_of(omega.motzkin_to_forward_exp, L, word)))

    # the largest sizes of the perfbench count workload: motzkin, triangular
    # and waffle; each is one call of the 1-D transfer kernel
    for L, n in ((12, 400), (24, 250)):
        out.append((f"motzkin.meander_row L={L} n={n}", {"L": L, "n": n},
                    best_of(motzkin.meander_row, L, n)))
    out.append(("pyramid3d.count_waffle_walks L=30 n=200", {"L": 30, "n": 200, "start": [0, 0]},
                best_of(pyramid3d.count_waffle_walks, 30, 200, (0, 0))))
    out += engine_rows()

    for L, N in ((12, 150), (10, 1000), (40, 400)):
        out.append((f"pyramid_gf_coefficients L={L} N={N}", {"L": L, "N": N},
                    best_of(pyramid3d.pyramid_gf_coefficients, L, N)))
    for L, n in ((12, 150), (40, 400)):
        out.append((f"pyramid3d.corner_count_by_reflection L={L} n={n}", {"L": L, "n": n},
                    best_of(pyramid3d.corner_count_by_reflection, L, n)))
    # the lattice's points and neighbour gathers, built afresh on every call
    for L, d in ((40, 2), (6, 5)):
        out.append((f"lattice.all_points L={L} d={d} (graph cache cleared)", {"L": L, "d": d},
                    best_of(uncached, lattice.all_points, L, d)))

    for argv in COUNT_ARGVS:
        out.append((f"cli {argv}", {"argv": argv}, best_of(run_cli, argv.split())))
    argv = "count triangular --d 8 --L 6 --n 10"
    out.append((f"cli {argv} (graph cache cleared)", {"argv": argv},
                best_of(uncached, run_cli, argv.split())))
    for argv in ONCE_ARGVS:
        out.append((f"cli {argv}", {"argv": argv, "repeats": 1},
                    best_of(run_cli, argv.split(), repeats=1)))
    # a fresh interpreter, bare and importing the CLI from the same src/
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    for code in ("pass", "import triwalks.cli"):
        out.append((f"process python -c {code!r}", {"code": code},
                    best_of(subprocess.run, [sys.executable, "-c", code], env=env, check=True)))
    # 16,000 sampler calls at L = 3, n = 4, so their per-call cost shows, and
    # 1,000 meanders of up to 40 letters next to the trapezium rules
    out.append(("verify.check_sampling", {}, best_of(verify.check_sampling)))
    out.append(("verify.check_trapezium", {}, best_of(verify.check_trapezium)))
    # the corner counts three ways, and the reflection count at every waffle start
    out.append(("verify.check_gf", {}, best_of(verify.check_gf)))
    out.append(("verify.check_reflection_pointwise", {},
                best_of(verify.check_reflection_pointwise)))
    out = [{"name": name, "params": p, "seconds": float(f"{s:.6g}")} for name, p, s in out]

    for argv in SAMPLE_ARGVS:
        out.append({"name": f"cli {argv}", "params": {"argv": argv},
                    "seconds": round(best_of(run_cli, argv.split()), 6),
                    "tracemalloc_peak_bytes": peak_bytes(run_cli, argv.split())})

    argv = "scaffolding --L 25 --seed 1 --out"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scaffolding.json")
        seconds = best_of(run_cli, [*argv.split(), path])
        out.append({"name": f"cli {argv} <tmp>", "params": {"argv": f"{argv} <tmp>"},
                    "seconds": round(seconds, 6),
                    "tracemalloc_peak_bytes": peak_bytes(run_cli, [*argv.split(), path])})
        with open(path) as fh:
            text = fh.read()
        out.append({"name": "RandomScaffolding.loads", "params": {"file": f"cli {argv} <tmp>"},
                    "seconds": round(best_of(scaffold2d.RandomScaffolding.loads, text), 6),
                    "tracemalloc_peak_bytes": peak_bytes(scaffold2d.RandomScaffolding.loads, text)})
        paths = {25: path}
        for L in (18, 40):
            paths[L] = os.path.join(tmp, f"scaffolding_L{L}.json")
            run_cli(["scaffolding", "--L", str(L), "--seed", "1", "--out", paths[L]])
        # the whole read of a file: its text and then loads, as the CLI once
        # read it, and load on the open file, as it reads it now; and load
        # refusing the L = 25 file with one syntax error near its end
        refused = os.path.join(tmp, "refused.json")
        with open(refused, "w") as fh:
            fh.write(text[:-3] + "x" + text[-2:])
        reads = [(name, read, f"cli scaffolding --L {L} --seed 1", paths[L])
                 for L in (25, 40)
                 for name, read in (("read + RandomScaffolding.loads", read_text_loads),
                                    ("RandomScaffolding.load", load))]
        reads.append(("RandomScaffolding.load, refused", load_refused,
                      "cli scaffolding --L 25 --seed 1, one syntax error near its end", refused))
        for name, read, source, file in reads:
            out.append({"name": name, "params": {"file": source},
                        "seconds": round(best_of(read, file), 6),
                        "tracemalloc_peak_bytes": peak_bytes(read, file)})
        # a word and a walk of the file's own scaffolding, mapped by the file
        n = 6_000
        for L in (18, 25):
            word = motzkin.uniform_sample(n, L, seed=1)
            walk = lattice.format_steps(
                scaffold2d.RandomScaffolding(L, 1).motzkin_to_triangular(word))
            for direction, given in (("m2t", word.steps), ("t2m", walk)):
                map_argv = ["map", "--scaffolding-file", paths[L], "--direction", direction,
                            "--L", str(L), given]
                name = f"cli map --scaffolding-file <tmp> --direction {direction} --L {L}"
                source = "uniform_sample(n, L, seed=1)"
                if direction == "t2m":
                    source += " mapped m2t by the file"
                out.append({"name": name, "params": {"argv": f"{name} <input>", "n": n, "L": L,
                                                     "input": source},
                            "seconds": round(best_of(run_cli, map_argv), 6),
                            "tracemalloc_peak_bytes": peak_bytes(run_cli, map_argv)})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the output file")
    ap.add_argument("--out", required=True, help="BENCH_*.json file to write or extend")
    args = ap.parse_args(argv)
    doc = {"repeats": REPEATS, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows(),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in doc["runs"][args.label]["rows"]:
        peak = row.get("tracemalloc_peak_bytes")
        print(f"{args.label:8} {row['name']:58} {row['seconds']:.4g} s"
              + (f", peak {peak / 2**20:.1f} MiB" if peak is not None else ""))


if __name__ == "__main__":
    main()
