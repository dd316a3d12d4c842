"""Property-based identities checked past the exhaustive grids.

Hypothesis runs under the derandomized profile loaded in ``conftest.py``,
so every run draws the same examples.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import brute_generic  # noqa: E402
from triwalks import cli, flips, lattice, motzkin, omega, pyramid3d  # noqa: E402
from triwalks.errors import InvalidWalk, NotAllowed, OutOfLattice, TriwalksError  # noqa: E402
from triwalks.scaffold2d import RandomScaffolding, TrapeziumScaffolding  # noqa: E402


@given(
    d=st.sampled_from((2, 3)),
    L=st.integers(0, 12),
    dv=st.text(alphabet="FB", max_size=40),
)
def test_count_table_independent_of_direction_vector(d, L, dv):
    assert lattice.count_table(L, d, dv) == lattice.count_table(L, d, "F" * len(dv))


@given(data=st.data(), L=st.integers(0, 12), dv=st.text(alphabet="FB", max_size=40))
def test_cli_triangular_count_equals_the_dp(data, L, dv):
    z = data.draw(st.sampled_from(lattice.all_points(L, 2)))
    argv = ["count", "triangular", "--L", str(L), "--start", lattice.format_point(z)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--dv", dv]) == 0
    doc = json.loads(out.getvalue().splitlines()[-1])
    assert doc["outputs"]["count"] == str(lattice.count_paths(L, 2, z, dv))


@settings(max_examples=20)
@given(data=st.data(), d=st.sampled_from((2, 3)), L=st.integers(0, 6),
       dv=st.text(alphabet="FB", max_size=7))
def test_enumerated_paths_equal_the_brute_force_walks(data, d, L, dv):
    z = data.draw(st.sampled_from(lattice.all_points(L, d)))
    want = [w for w in brute_generic(L, d, z, len(dv))
            if "".join("F" if s > 0 else "B" for s in w) == dv]
    assert lattice.enumerate_paths(L, d, z, dv) == want


@settings(max_examples=50)
@given(data=st.data(), L=st.integers(0, 9), n=st.integers(0, 12))
def test_enumerated_meanders_match_their_count(data, L, n):
    i = data.draw(st.integers(0, L // 2))
    assert len(motzkin.enumerate_meanders(n, L, i)) == motzkin.count_meanders(L, n, i)


@settings(max_examples=50)
@given(data=st.data(), L=st.integers(0, 8), n=st.integers(0, 9))
def test_enumerated_waffle_walks_match_their_count(data, L, n):
    start = data.draw(st.sampled_from(pyramid3d.waffle_points(L)))
    assert len(pyramid3d.enumerate_waffle_walks(L, start, n)) == (
        pyramid3d.count_waffle_walks(L, n, start)
    )


@settings(max_examples=50)
@given(data=st.data(), L=st.integers(0, 14), n=st.integers(0, 60))
def test_waffle_counts_equal_the_2d_sweep(data, L, n):
    # swept(ends) maps each point to its walks of length n ending in ends;
    # N/E/S/W steps are their own reversals, so swept({start}) also maps each
    # point to the walks from start to it
    index, gathers = pyramid3d._waffle_graph(L)

    def swept(ends):
        counts = [int(pt in ends) for pt in index]
        for _ in range(n):
            counts = lattice.sweep(counts, gathers)
        return dict(zip(index, counts))

    on_axis = swept({pt for pt in index if pt[1] == 0})
    assert {pt: pyramid3d.count_waffle_walks(L, n, pt) for pt in index} == on_axis
    start = data.draw(st.sampled_from(list(index)))
    to_start = swept({start})
    assert {pt: pyramid3d.count_waffle_walks_to(L, n, start, pt) for pt in index} == to_start


@st.composite
def walks(draw, min_size=50, max_size=500):
    """(d, L, start, walk, target dv): a valid walk of the given length range,
    each step picked among the steps that stay in the lattice, and a target
    direction vector of the same length."""
    d = draw(st.sampled_from((2, 3)))
    L = draw(st.integers(1, 12))
    n = draw(st.integers(min_size, max_size))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    start = lattice.origin(L, d)
    steps = [s for k in range(1, d + 2) for s in (k, -k)]
    point, walk = start, []
    for pick in picks:
        options = []
        for s in steps:
            nxt = lattice.move(point, s)
            if min(nxt) >= 0:
                options.append((s, nxt))
        s, point = options[pick % len(options)]
        walk.append(s)
    target = draw(st.text(alphabet="FB", min_size=len(walk), max_size=len(walk)))
    return d, L, start, tuple(walk), target


@settings(max_examples=30)
@given(walks())
def test_transport_round_trip_and_validity(case):
    d, L, start, walk, target = case
    image = flips.transform(walk, target, d)
    assert flips.direction_vector(image) == target
    lattice.validate_path(L, d, start, image)
    assert flips.transform(image, flips.direction_vector(walk), d) == walk


@settings(max_examples=10)
@given(walks(), st.integers(0, 2**32))
def test_random_schedule_agrees_with_transform(case, seed):
    d, _, _, walk, target = case
    assert flips.transform_random(walk, target, seed=seed, d=d) == flips.transform(walk, target, d)


@settings(max_examples=30)
@given(walks())
def test_trace_replays_to_transform(case):
    d, _, _, walk, target = case
    image, events = flips.transform_with_trace(walk, target, d)
    assert image == flips.transform(walk, target, d)
    cur = list(walk)
    for ev in events:
        i = ev.position
        assert tuple(cur[i : i + len(ev.before)]) == ev.before
        if ev.kind == "swap":
            cur[i : i + 2] = flips.swap_flip(cur[i : i + 2], 0, d)
        else:
            assert i == len(cur) - 1
            cur[i:] = flips.last_step_flip(cur[i:], d)
        assert tuple(cur[i : i + len(ev.after)]) == ev.after
    assert tuple(cur) == image


@st.composite
def edge_walks(draw, min_size=50, max_size=200):
    """(L, k, walk): a side 1 <= L <= 21, a level 0 <= k <= L // 2, and a
    forward walk from ``omega.edge_point(L, k)``, each step picked among the
    forward steps that stay in the triangle."""
    L = draw(st.integers(1, 21))
    k = draw(st.integers(0, L // 2))
    n = draw(st.integers(min_size, max_size))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    point, walk = omega.edge_point(L, k), []
    for pick in picks:
        options = [(s, nxt) for s in (1, 2, 3) if min(nxt := lattice.move(point, s)) >= 0]
        s, point = options[pick % len(options)]
        walk.append(s)
    return L, k, tuple(walk)


@settings(max_examples=20)
@given(edge_walks())
def test_omega_round_trip_from_any_level(case):
    L, k, walk = case
    image = omega.omega(L, k, walk)
    if image.is_meander:
        assert image.meander.start_height == k and motzkin.fits_amplitude(image.meander, L)
        assert len(image.meander) == len(walk)
    else:
        assert k >= 1 and all(s > 0 for s in image.path)
        lattice.validate_path(L, 2, omega.edge_point(L, k - 1), image.path)
    assert omega.omega_inverse(L, k, image) == walk


@st.composite
def waffle_walks(draw, min_size=50, max_size=500):
    """(z, cell, walk): a pyramid point of side 1 <= L <= 12, a cell of C(z),
    and a waffle walk from the cell's anchor that ends on the axis, each
    letter picked among the steps that stay inside and leave the axis in
    reach."""
    L = draw(st.integers(1, 12))
    z = draw(st.sampled_from(pyramid3d.pyramid_points(L)))
    cell = draw(st.sampled_from(pyramid3d.profile3d(z)))
    n = draw(st.integers(min_size, max_size))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    (i, j), letters = pyramid3d.anchor(z, cell), []
    for left, pick in zip(range(n - 1, -1, -1), picks):
        options = []
        for s in pyramid3d.CARDINAL_ORDER:
            di, dj = pyramid3d.CARDINAL[s]
            if j + dj <= left and pyramid3d.in_waffle((i + di, j + dj), L):
                options.append((s, i + di, j + dj))
        s, i, j = options[pick % len(options)]
        letters.append(s)
    return z, cell, "".join(letters)


def answer_or_error(fn, *args):
    """``fn(*args)``, or None when it raises a TriwalksError; any other
    exception fails the test."""
    try:
        return fn(*args)
    except TriwalksError:
        return None


# malformed inputs: steps that may be backward, zero or out of range, and
# letters that may be white (lowercase) or no letter at all
BAD_STEPS = st.lists(st.integers(-4, 5), max_size=8).map(tuple)


@settings(max_examples=30)
@given(waffle_walks(), BAD_STEPS, st.text(alphabet="NESWX", max_size=8))
def test_waffle_pyramid_round_trip(case, steps, letters):
    z, cell, walk = case
    path = pyramid3d.waffle_to_pyramid(z, cell, walk)
    assert len(path) == len(walk) and all(s > 0 for s in path)
    lattice.validate_path(sum(z), 3, z, path)
    assert pyramid3d.pyramid_to_waffle(z, path) == (cell, walk)
    # on malformed input each direction answers and round-trips, or raises
    # a TriwalksError
    back = answer_or_error(pyramid3d.pyramid_to_waffle, z, steps)
    if back is not None:
        assert pyramid3d.waffle_to_pyramid(z, *back) == steps
    path = answer_or_error(pyramid3d.waffle_to_pyramid, z, cell, letters)
    if path is not None:
        assert pyramid3d.pyramid_to_waffle(z, path) == (cell, letters)


# one materialized scaffolding, built once at import
RANDOM_SCAFFOLDING = RandomScaffolding(9, seed=8)


@st.composite
def scaffolded_paths(draw, min_size=50, max_size=500):
    """(scaffolding, Motzkin path): the trapezium scaffolding of a drawn side
    L or the random one, and a path of amplitude at most L whose letters are
    each picked among those that still let it return to height 0."""
    if draw(st.booleans()):
        scaf = RANDOM_SCAFFOLDING
    else:
        scaf = TrapeziumScaffolding(draw(st.integers(1, 12)))
    n = draw(st.integers(min_size, max_size))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    h, letters = 0, []
    for left, pick in zip(range(n - 1, -1, -1), picks):
        options = [ch for ch in motzkin.allowed_steps(h, scaf.L)
                   if h + motzkin._HEIGHT_MOVE[ch] <= left]
        ch = options[pick % len(options)]
        letters.append(ch)
        h += motzkin._HEIGHT_MOVE[ch]
    return scaf, motzkin.MotzkinWord("".join(letters))


@settings(max_examples=30)
@given(scaffolded_paths(), BAD_STEPS, st.text(alphabet="UFDufdX", max_size=8))
def test_transducer_round_trip_one_lookup_per_letter(case, steps, letters):
    scaf, word = case
    n = len(word)
    before = scaf.lookup_count
    walk = scaf.motzkin_to_triangular(word)
    assert scaf.lookup_count - before == n
    lattice.validate_path(scaf.L, 2, lattice.origin(scaf.L), walk)
    assert all(s > 0 for s in walk)
    before = scaf.lookup_count
    back = scaf.triangular_to_motzkin(walk)
    assert scaf.lookup_count - before == n
    assert back == word
    assert scaf.motzkin_to_triangular(back) == walk
    # on malformed input each map answers, and m2t and t2m round-trip, or it
    # raises a TriwalksError
    back = answer_or_error(scaf.triangular_to_motzkin, steps)
    if back is not None:
        assert scaf.motzkin_to_triangular(back) == steps
    walk = answer_or_error(scaf.motzkin_to_triangular, letters)
    if walk is not None:
        assert scaf.triangular_to_motzkin(walk).steps == letters
    for method in ("one", "two"):
        image = answer_or_error(scaf.bicolored_to_generic, letters, method)
        if image is not None:
            lattice.validate_path(scaf.L, 2, lattice.origin(scaf.L), image)
            dv = motzkin.MotzkinWord.from_word(letters).direction_vector()
            assert flips.direction_vector(image) == dv


@settings(max_examples=30)
@given(scaffolded_paths(), st.data())
def test_bicolored_image_stays_in_the_triangle_and_follows_the_coloring(case, data):
    scaf, word = case
    colors = data.draw(st.text(alphabet="bw", min_size=len(word), max_size=len(word)))
    colored = motzkin.MotzkinWord(word.steps, colors=colors)
    before = scaf.lookup_count
    image = scaf.bicolored_to_generic(colored, method="two")
    assert scaf.lookup_count - before == len(word)
    lattice.validate_path(scaf.L, 2, lattice.origin(scaf.L), image)
    assert flips.direction_vector(image) == colored.direction_vector()


# -- the 1-D transfer kernel: both engines against the step-by-step rows ------

@st.composite
def strip_walks(draw):
    """(L, n, i): L <= 60, n up to 3,000 or within two of the crossover, and a
    start height i."""
    L = draw(st.integers(0, 60))
    edge = int(lattice._crossover([1] * (L // 2) + [L % 2]))
    n = draw(st.one_of(st.integers(0, 3000), st.integers(edge - 2, edge + 2)))
    return L, n, draw(st.integers(0, L // 2))


@settings(max_examples=20)
@given(strip_walks())
@example((60, 3000, 17))
@example((59, 2999, 29))
def test_both_transfer_engines_equal_the_meander_rows(case):
    # the first start vector gives the whole row, one entry per start height,
    # and the second, e_i, gives entry i again, since T is symmetric
    L, n, i = case
    H = L // 2
    diag = [1] * H + [L % 2]
    starts = [[1] + [0] * H, [int(k == i) for k in range(H + 1)]]
    for row in lattice.tridiagonal_rows(diag, n, starts[0]):  # one row held at a time
        pass
    packed = lattice._packed_sweep(diag, n, starts)
    assert packed[0] == row and packed[1][0] == row[i]
    assert lattice._power_mod_chi(diag, n, starts) == packed
    assert lattice.tridiagonal_power(diag, n, starts) == packed
    assert motzkin.meander_row(L, n) == row


def waffle_dp(L, n, start, ends):
    """Walks of n cardinal steps in the waffle from ``start`` to a point of
    ``ends``, by n sweeps of the 2-D waffle graph."""
    index, gathers = pyramid3d._waffle_graph(L)
    counts = [int(pt in ends) for pt in index]
    for _ in range(n):
        counts = lattice.sweep(counts, gathers)
    return counts[index[start]]


@settings(max_examples=20)
@given(data=st.data(), L=st.integers(0, 12), n=st.integers(0, 40))
def test_walker_kernel_equals_the_pyramid_and_waffle_dps(data, L, n):
    z = data.draw(st.sampled_from(pyramid3d.pyramid_points(L)))
    start, end = data.draw(st.lists(st.sampled_from(pyramid3d.waffle_points(L)),
                                    min_size=2, max_size=2))
    axis = {(i, 0) for i in range(L + 1)}
    want = (pyramid3d.count_pyramid_paths(L, n, z), waffle_dp(L, n, start, axis),
            waffle_dp(L, n, start, {end}))
    for crossover in ((math.inf, 0), (-1, 0)):  # the packed sweep, then x^n mod chi
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "POWER_CROSSOVER", crossover)
            assert (pyramid3d.forward_count(L, z, n), pyramid3d.count_waffle_walks(L, n, start),
                    pyramid3d.count_waffle_walks_to(L, n, start, end)) == want, crossover


# -- the walk loops of ``lattice`` against a ``move`` per letter ----------------

SHAPES = {3: "triangle", 4: "pyramid"}


def move_run(z, state, letters, lookup):
    """``lattice.run`` as one ``move`` per letter."""
    steps = []
    try:
        for letter in letters:
            s, state = lookup(z, state, letter)
            steps.append(s)
            z = lattice.move(z, s)
    except NotAllowed:
        if min(z) >= 0:
            raise
    if min(z) < 0:
        raise OutOfLattice(f"step {len(steps)} leaves the lattice at {z}")
    return tuple(steps), z, state


def move_points(z, steps, error):
    """The point before each step of a forward walk, by ``move``, or ``error``
    at the first step that is not forward or leaves the lattice."""
    shape = SHAPES.get(len(z), "lattice")
    before = []
    for s in steps:
        if type(s) is not int or not 0 < s <= len(z):
            raise error(f"bad step {s!r}: a {shape} walk takes forward steps 1-{len(z)}")
        before.append(z)
        z = lattice.move(z, s)
        if min(z) < 0:
            raise error(f"walk leaves the {shape}")
    return before, z


def move_unrun(z, steps, state, inverse, error):
    """``lattice.unrun`` over the list of points that ``move`` visits."""
    before, _ = move_points(z, steps, error)
    letters = []
    for z, s in zip(reversed(before), reversed(steps)):
        state, letter = inverse(z, s, state)
        letters.append(letter)
    return state, "".join(reversed(letters))


def move_validate_path(L, d, start, steps):
    """``lattice.validate_path`` by ``move``, which takes any key of its table,
    after the check that every step is an int."""
    pts = [lattice.check_start(L, d, start)]
    for k, s in enumerate(steps, start=1):
        if type(s) is not int:
            raise ValueError(f"step index {s!r} out of range for d={d}")
        p = lattice.move(pts[-1], s)
        if min(p) < 0:
            raise OutOfLattice(f"prefix of length {k} leaves the lattice at {p}", prefix_len=k)
        pts.append(p)
    return pts


def outcome(fn, *args):
    """("ok", the result), or the exception's type, text and prefix_len."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared whole, whatever the type
        return type(exc), str(exc), getattr(exc, "prefix_len", None)


@st.composite
def lattice_walks(draw):
    """(d, L, start, steps, refused): a start in the triangle or pyramid of side
    L <= 8, a forward walk from it that stays inside, then up to four steps
    of any kind (backward, 0, d + 2, True, 1.0, or forward), and the index of
    the letter that the lookup of the ``run`` check refuses (past the end:
    none)."""
    d = draw(st.sampled_from((2, 3)))
    L = draw(st.integers(0, 8))
    z = draw(st.sampled_from(lattice.all_points(L, d)))
    p, steps = z, []
    for pick in draw(st.lists(st.integers(0, 2**16), max_size=80)):
        options = [s for s in range(1, d + 2) if min(lattice.move(p, s)) >= 0]
        if not options:
            break
        steps.append(options[pick % len(options)])
        p = lattice.move(p, steps[-1])
    any_step = st.sampled_from([*range(-d - 1, d + 2), d + 2, True, 1.0])
    steps += draw(st.lists(any_step, max_size=4))
    return d, L, z, tuple(steps), draw(st.integers(0, len(steps) + 8))


@settings(max_examples=300)
@given(lattice_walks())
def test_walk_loops_equal_a_move_per_letter(case):
    d, L, z, steps, refused = case
    assert (outcome(lattice.validate_path, L, d, z, steps)
            == outcome(move_validate_path, L, d, z, steps))
    assert (outcome(lattice.check_forward, z, steps, InvalidWalk)
            == outcome(lambda *a: move_points(*a)[1], z, steps, InvalidWalk))

    def lookup(p, state, k):  # emits the k-th step; the state lists every point
        if k == refused:
            raise NotAllowed(f"letter {k} refused at {p}")
        return steps[k], state + (p,)

    letters = range(len(steps))
    assert outcome(lattice.run, z, (), letters, lookup) == outcome(move_run, z, (), letters, lookup)

    def inverse(p, s, state):
        return state + ((p, s),), "ab"[s % 2]

    assert (outcome(lattice.unrun, z, steps, (), inverse, InvalidWalk)
            == outcome(move_unrun, z, steps, (), inverse, InvalidWalk))


@settings(max_examples=30)
@given(scaffolded_paths(), BAD_STEPS)
def test_transducer_loops_equal_a_move_per_letter(case, steps):
    drawn, word = case
    origin = lattice.origin(drawn.L)
    for scaf in (TrapeziumScaffolding(drawn.L), RandomScaffolding(drawn.L, seed=8)):
        results = []
        for run, unrun in ((lattice.run, lattice.unrun), (move_run, move_unrun)):
            before = scaf.lookup_count
            image = outcome(run, origin, (0, 0), word.steps, scaf.delta)
            assert scaf.lookup_count - before == len(word)
            walk = image[1][0]
            before = scaf.lookup_count
            back = outcome(unrun, origin, walk, (0, 0), scaf.delta_inv, OutOfLattice)
            assert scaf.lookup_count - before == len(word)
            assert back == ("ok", ((0, 0), word.steps))
            results.append((image, outcome(unrun, origin, steps, (0, 0), scaf.delta_inv,
                                           OutOfLattice)))
        assert results[0] == results[1]


@settings(max_examples=30)
@given(waffle_walks(), BAD_STEPS)
def test_pyramid_loops_equal_a_move_per_letter(case, steps):
    z, cell, walk = case
    image = outcome(lattice.run, z, cell, walk, pyramid3d._lookup)
    assert image == outcome(move_run, z, cell, walk, pyramid3d._lookup)
    for path in (image[1][0], steps):
        assert (outcome(lattice.unrun, z, path, (0, 0), pyramid3d.diamond_delta_inv, InvalidWalk)
                == outcome(move_unrun, z, path, (0, 0), pyramid3d.diamond_delta_inv, InvalidWalk))
