"""Seeded inputs for the benchmark workloads.

Everything here is written against the definitions in the paper, not
against the ``triwalks`` samplers, so a change to the program cannot change
the inputs it is measured on. The same seed always gives the same op lists,
byte for byte.

Sizes are drawn by stratified sampling: a size range is cut into as many
equal slices as there are ops of a kind, and one size is drawn inside each
slice. Every seed therefore covers the whole range in the same proportions,
which keeps the work of a pass nearly independent of the seed while no
(family, L, n, dv) query ever repeats.
"""

from __future__ import annotations

import random

# forward step s_j moves one unit from coordinate j-1 to coordinate j (cyclic)
_TRIANGLE_STEP = {1: (1, 0, -1), 2: (-1, 1, 0), 3: (0, -1, 1)}
_CARDINAL = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_HEIGHT_MOVE = {"U": 1, "F": 0, "D": -1}

# ops per pass; the mix decides which layers a workload loads
COUNT_MIX = {
    "triangular": 12,
    "generic": 8,
    "bicolored": 6,
    "pyramid": 8,
    "waffle": 8,
    "motzkin": 10,
    "gf": 6,
    "enumerate": 8,
    "profile": 8,
}
MAP_MIX = {
    "trapezium": 16,
    "file": 8,
    "bicolored_two": 6,
    "bicolored_one": 6,
    "omega": 12,
    "sample_motzkin": 6,
    "sample_forward": 6,
    "pyramid_map": 8,
}


def rng_for(seed, *tags):
    return random.Random(":".join(map(str, (seed,) + tags)))


def spread(rng, lo, hi, k):
    """k integers covering [lo, hi], one drawn in each of k equal slices, ascending."""
    width = (hi - lo + 1) / k
    return [int(lo + width * (i + rng.random())) for i in range(k)]


def grid(lo, hi, k):
    """k evenly spaced integers from lo to hi."""
    return [lo + (hi - lo) * i // (k - 1) for i in range(k)]


# -- objects ------------------------------------------------------------------

def motzkin_word(rng, n, L, start_height=0):
    """A meander of length n from ``start_height`` with amplitude at most L.

    A random walk on heights that only takes letters allowed at its height
    and never climbs higher than it can still come down from.
    """
    H = L // 2
    h = start_height
    letters = []
    for m in range(n, 0, -1):
        options = []
        if h < H and h + 1 <= m - 1:
            options.append("U")
        if (h < H or L % 2 == 1) and h <= m - 1:
            options.append("F")
        if h > 0:
            options.append("D")
        ch = rng.choice(options)
        letters.append(ch)
        h += _HEIGHT_MOVE[ch]
    return "".join(letters)


def coloring(rng, word):
    """The word with each letter colored at random; lowercase marks white."""
    return "".join(ch.lower() if rng.random() < 0.5 else ch for ch in word)


def triangle_points(L):
    return [(a, b, L - a - b) for a in range(L + 1) for b in range(L + 1 - a)]


def forward_walk(rng, L, n):
    """A forward walk of length n from the corner (0, 0, L) of the triangle."""
    z = (0, 0, L)
    steps = []
    for _ in range(n):
        options = []
        for j, v in _TRIANGLE_STEP.items():
            w = (z[0] + v[0], z[1] + v[1], z[2] + v[2])
            if min(w) >= 0:
                options.append((j, w))
        j, z = rng.choice(options)
        steps.append(j)
    return steps


def in_waffle(i, j, L):
    return 0 <= j <= i <= L - j


def waffle_walk(rng, L, n):
    """A walk of length n in the waffle from the corner (0, 0) back to the axis."""
    i, j = 0, 0
    letters = []
    for m in range(n, 0, -1):
        options = []
        for ch, (di, dj) in _CARDINAL.items():
            a, b = i + di, j + dj
            if in_waffle(a, b, L) and b <= m - 1:
                options.append((ch, a, b))
        ch, i, j = rng.choice(options)
        letters.append(ch)
    return "".join(letters)


def format_steps(steps):
    return " ".join(f"s{s}" if s > 0 else f"-s{-s}" for s in steps)


# -- op lists -------------------------------------------------------------------

def _op(kind, argv, **check):
    return {"kind": kind, "argv": [str(a) for a in argv], "check": check}


class _Unique:
    """Rejects a repeated (family, L, n, dv) query within one run."""

    def __init__(self):
        self.seen = set()

    def fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def count_ops(seed, pass_index, unique):
    rng = rng_for(seed, "count", pass_index)
    ops = []
    k = COUNT_MIX["triangular"]
    for L, n in zip(spread(rng, 10, 24, k), spread(rng, 100, 250, k)):
        while True:
            z = rng.choice(triangle_points(L))
            dv = "F" * n if rng.random() < 0.5 else "".join(rng.choice("FB") for _ in range(n))
            if unique.fresh(("triangular", L, n, dv)):
                break
            n += 1
        start = ",".join(map(str, z))
        ops.append(_op("count triangular",
                       ["count", "triangular", "--L", L, "--n", n, "--dv", dv, "--start", start],
                       L=L, n=n, start=list(z)))
    k = COUNT_MIX["generic"]
    for L, n in zip(spread(rng, 8, 16, k), spread(rng, 60, 120, k)):
        z = rng.choice(triangle_points(L))
        while not unique.fresh(("generic", L, n, None)):
            n += 1
        ops.append(_op("count generic",
                       ["count", "generic", "--L", L, "--n", n, "--start", ",".join(map(str, z))],
                       L=L, n=n, start=list(z)))
    k = COUNT_MIX["bicolored"]
    for L, m in zip(spread(rng, 3, 6, k), spread(rng, 8, 10, k)):
        p = (m + 1) // 2 - rng.randrange(2)
        q = m - p
        if rng.random() < 0.5:
            p, q = q, p
        while not unique.fresh(("bicolored", L, p + q, p)):
            L += 1
        ops.append(_op("count bicolored", ["count", "bicolored", "--L", L, "--p", p, "--q", q],
                       L=L, p=p, q=q))
    k = COUNT_MIX["pyramid"]
    orientations = ["F", "B"] * (k // 2)
    rng.shuffle(orientations)
    for L, n, o in zip(spread(rng, 6, 10, k), spread(rng, 50, 100, k), orientations):
        while not unique.fresh(("pyramid", L, n, o)):
            n += 1
        ops.append(_op("count pyramid",
                       ["count", "pyramid", "--L", L, "--n", n, "--orientation", o],
                       L=L, n=n))
    k = COUNT_MIX["waffle"]
    for L, n in zip(spread(rng, 16, 30, k), spread(rng, 100, 200, k)):
        while not unique.fresh(("waffle", L, n, None)):
            n += 1
        ops.append(_op("count waffle", ["count", "waffle", "--L", L, "--n", n], L=L, n=n))
    k = COUNT_MIX["motzkin"]
    for A, n in zip(spread(rng, 2, 12, k), spread(rng, 200, 400, k)):
        i = rng.randrange(A // 2 + 1)
        while not unique.fresh(("motzkin", A, n, i)):
            n += 1
        ops.append(_op("count motzkin",
                       ["count", "motzkin", "--n", n, "--amplitude", A, "--start-height", i],
                       A=A, n=n, i=i))
    # gf sizes are a fixed grid, shifted by the pass so no query repeats. The
    # known PrecisionLoss limit lies at 64-97 terms for 3 <= L <= 12, so the
    # same 4 of the 6 ops fail on every seed, and ok_ratio does not vary with it
    k = COUNT_MIX["gf"]
    for L, terms in zip(grid(2, 12, k), grid(20 + pass_index, 150 + pass_index, k)):
        while not unique.fresh(("gf", L, terms, None)):
            terms += 1
        ops.append(_op("gf", ["gf", "--L", L, "--terms", terms], L=L, terms=terms))
    k = COUNT_MIX["enumerate"]
    for idx in range(k):
        if idx % 2 == 0:
            L, n = rng.randint(3, 5), rng.randint(4, 6)
            z = rng.choice(triangle_points(L))
            dv = "".join(rng.choice("FB") for _ in range(n))
            ops.append(_op("enumerate triangular",
                           ["enumerate", "triangular", "--L", L, "--dv", dv,
                            "--start", ",".join(map(str, z))],
                           L=L, dv=dv, start=list(z)))
        else:
            A, n = rng.randint(2, 6), rng.randint(6, 10)
            i = rng.randrange(A // 2 + 1)
            ops.append(_op("enumerate motzkin",
                           ["enumerate", "motzkin", "--n", n, "--amplitude", A,
                            "--start-height", i],
                           A=A, n=n, i=i))
    for L in spread(rng, 10, 40, COUNT_MIX["profile"]):
        z = rng.choice(triangle_points(L))
        ops.append(_op("profile", ["profile", "--point", ",".join(map(str, z))], point=list(z)))
    rng.shuffle(ops)
    return ops


def map_ops(seed, pass_index, files):
    rng = rng_for(seed, "map", pass_index)
    ops = []

    k = MAP_MIX["trapezium"]
    sides = spread(rng, 5, 25, k)
    rng.shuffle(sides)
    for idx, (L, n) in enumerate(zip(sides, spread(rng, 2000, 10000, k))):
        ops.append(_transducer_op(rng, idx, "trapezium", ["--method", "trapezium"], L, n))
    k = MAP_MIX["file"]
    for idx, n in enumerate(spread(rng, 2000, 10000, k)):
        L, _, path = files[idx % len(files)]
        ops.append(_transducer_op(rng, idx, "file", ["--scaffolding-file", path], L, n,
                                  file=path))
    k = MAP_MIX["bicolored_two"]
    sides = spread(rng, 5, 25, k)
    rng.shuffle(sides)
    for L, n in zip(sides, spread(rng, 2000, 10000, k)):
        word = coloring(rng, motzkin_word(rng, n, L))
        ops.append(_op("map bicolored two",
                       ["map", "--method", "trapezium", "--bicolored", "two", "--L", L, word],
                       L=L, word=word))
    k = MAP_MIX["bicolored_one"]
    sides = spread(rng, 5, 25, k)
    rng.shuffle(sides)
    for L, n in zip(sides, spread(rng, 50, 200, k)):
        word = coloring(rng, motzkin_word(rng, n, L))
        ops.append(_op("map bicolored one",
                       ["map", "--method", "trapezium", "--bicolored", "one", "--L", L, word],
                       L=L, word=word))
    k = MAP_MIX["omega"]
    sides = spread(rng, 5, 9, k)
    rng.shuffle(sides)
    for idx, (L, n) in enumerate(zip(sides, spread(rng, 40, 120, k))):
        ops.append(_transducer_op(rng, idx, "omega", ["--method", "omega"], L, n))
    # the samplers' count tables are the largest objects of the workload, so
    # their sizes are a fixed grid: the peak memory does not vary with the seed
    k = MAP_MIX["sample_motzkin"]
    for A, n in zip(grid(5, 25, k), grid(1000, 4000, k)):
        s = rng.randrange(10**6)
        ops.append(_op("sample motzkin",
                       ["sample", "motzkin", "--n", n, "--amplitude", A, "--seed", s], A=A, n=n))
    k = MAP_MIX["sample_forward"]
    for L, n in zip(grid(5, 25, k), grid(1000, 4000, k)):
        s = rng.randrange(10**6)
        ops.append(_op("sample forward",
                       ["sample", "forward", "--n", n, "--L", L, "--seed", s], L=L, n=n))
    k = MAP_MIX["pyramid_map"]
    sides = spread(rng, 4, 12, k)
    rng.shuffle(sides)
    for L, n in zip(sides, spread(rng, 1000, 4000, k)):
        walk = waffle_walk(rng, L, n)
        ops.append(_op("pyramid map",
                       ["pyramid", "map", "--L", L, "--cell", "0,0", "--walk", walk],
                       L=L, walk=walk))
    rng.shuffle(ops)
    return ops


def _transducer_op(rng, idx, method, flags, L, n, **extra):
    """Even ops send a Motzkin word to a walk (m2t), odd ops the reverse (t2m)."""
    if idx % 2 == 0:
        word = motzkin_word(rng, n, L)
        return _op(f"map {method} m2t", ["map", *flags, "--direction", "m2t", "--L", L, word],
                   L=L, word=word, **extra)
    walk = format_steps(forward_walk(rng, L, n))
    return _op(f"map {method} t2m", ["map", *flags, "--direction", "t2m", "--L", L, walk],
               L=L, walk=walk, **extra)
