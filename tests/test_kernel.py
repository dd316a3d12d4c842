"""The indexed walk kernel: steps, whole tables, enumeration, thin callers, grids,
large sizes."""

import json
import math
import pathlib
import random
from operator import add

import pytest

from triwalks import lattice, motzkin, pyramid3d, verify
from triwalks.errors import BadDirectionVector, CapExceeded, OutOfLattice, TriwalksError

FLOORS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "verify_floors.json"


def test_count_table_is_indexed_like_all_points():
    for d in (2, 3):
        for L in range(5):
            pts = lattice.all_points(L, d)
            for dv in ("", "F", "BF", "FFB"):
                table = lattice.count_table(L, d, dv)
                assert len(table) == len(pts)
                for z, c in zip(pts, table):
                    assert c == lattice.count_paths(L, d, z, dv)
            gen = lattice.generic_table(L, d, 3)
            assert gen == [lattice.count_generic(L, d, z, 3) for z in pts]


def test_move_round_trips_and_rejects_bad_steps():
    for d in (2, 3):
        for L in range(4):
            for z in lattice.all_points(L, d):
                for s in range(1, d + 2):
                    assert lattice.move(lattice.move(z, s), -s) == z
                    assert lattice.move(lattice.move(z, -s), s) == z
        for bad in (0, d + 2, -(d + 2)):
            with pytest.raises(ValueError):
                lattice.move(lattice.origin(2, d), bad)


@pytest.mark.parametrize(
    "enumerate_, size",
    [
        (lambda cap: lattice.enumerate_paths(4, 2, lattice.origin(4), "FBFFBF", cap=cap),
         lattice.count_paths(4, 2, lattice.origin(4), "FBFFBF")),
        (lambda cap: lattice.enumerate_generic(3, 3, (1, 1, 0, 1), 3, cap=cap),
         lattice.count_generic(3, 3, (1, 1, 0, 1), 3)),
        (lambda cap: motzkin.enumerate_meanders(7, 4, 1, cap=cap),
         motzkin.count_meanders(4, 7, 1)),
        (lambda cap: lattice.walks(0, 5, lambda i, v: [("a", v), ("b", v + 1)], bool, cap),
         2**5 - 1),
    ],
    ids=["paths", "generic", "meanders", "walks"],
)
def test_enumerators_allow_exactly_cap_items(enumerate_, size):
    assert len(enumerate_(size)) == size
    with pytest.raises(CapExceeded):
        enumerate_(size - 1)


def test_pyramid_points_follow_all_points():
    for L in range(5):
        pts = pyramid3d.pyramid_points(L)
        assert pts == sorted(pts)
        assert all(sum(z) == L and min(z) >= 0 for z in pts)
        assert [lattice.point_index(L, 3, z) for z in pts] == list(range(len(pts)))


def test_verify_grids_keep_their_sizes():
    # every default grid covers exactly the cases recorded with the benchmark
    sizes = json.loads(FLOORS.read_text())["checked"]
    assert sorted(sizes) == sorted(fn.__name__ for fns in verify.SUITES.values() for fn in fns)
    for name, size in sizes.items():
        result = getattr(verify, name)()
        assert result.ok, (result.name, result.counterexample)
        assert result.checked == size, name


@pytest.mark.parametrize(
    "call",
    [
        lambda: lattice.count_paths(3, 2, (0, 0, 5), "F"),
        lambda: lattice.count_paths(3, 2, (1, 1, 1, 0), "F"),
        lambda: lattice.count_generic(3, 2, (0, 0, 5), 2),
        lambda: pyramid3d.count_pyramid_paths(2, 1, (0, 0, 0, 5)),
        lambda: lattice.enumerate_paths(3, 2, (1, 1, 1, 0), "F"),
    ],
)
def test_off_lattice_start_raises(call):
    with pytest.raises(OutOfLattice):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: lattice.count_table(3, 2, "FX"),
        lambda: lattice.count_paths(3, 2, (0, 0, 3), "Bf"),
        lambda: lattice.enumerate_paths(3, 2, (0, 0, 3), "FQ"),
        lambda: pyramid3d.count_pyramid_paths(2, 2, (0, 0, 0, 2), "X"),
    ],
)
def test_direction_vector_letters_are_checked(call):
    with pytest.raises(BadDirectionVector):
        call()
    assert issubclass(BadDirectionVector, TriwalksError)


def test_pyramid_dp_equals_reflection_past_the_grid():
    assert pyramid3d.count_pyramid_paths(10, 100, lattice.origin(10, 3)) == (
        pyramid3d.corner_count_by_reflection(10, 100)
    )


def test_forward_counts_equal_motzkin_past_the_grid():
    assert lattice.count_paths(40, 2, lattice.origin(40), "F" * 400) == (
        motzkin.count_paths_by_amplitude(400, 40)
    )


def test_both_transfer_engines_agree_past_4300_digits():
    # the meander row at L = 40 and the pyramid corner count at L = 8, each
    # by the packed sweep and by x^n mod chi
    diag, start = [1] * 20 + [0], [[1] + [0] * 20]
    packed = lattice._packed_sweep(diag, 9300, start)
    assert packed[0][0] > 10**4300
    assert lattice._power_mod_chi(diag, 9300, start) == packed
    counts = []
    for crossover in ((math.inf, 0), (-1, 0)):  # the packed sweep, then x^n mod chi
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "POWER_CROSSOVER", crossover)
            counts.append(pyramid3d.forward_count(8, lattice.origin(8, 3), 8300))
    assert counts[0] == counts[1] > 10**4300


def test_transfer_kernel_edges():
    # no step, a one-entry strip, zero and several start vectors
    assert lattice.tridiagonal_power([1, 0], 0, [[3, 4]]) == [[3, 4]]
    for engine in (lattice._packed_sweep, lattice._power_mod_chi):
        assert engine([0], 5, [[2]]) == [[0]]
        assert engine([1], 5, [[2]]) == [[2]]
        assert engine([0, 0], 3, [[1, 0], [0, 0], [0, 1]]) == [[0, 1], [0, 0], [1, 0]]
        assert engine([1, 1, 1], 7, []) == []
    with pytest.raises(ValueError, match="need n >= 0, got n=-1"):
        lattice.tridiagonal_power([1], -1, [[1]])
    # a diagonal entry other than 0 or 1, and a start vector with a negative
    # entry or of the wrong length, which the packed slots cannot hold
    for diag in ([2], [1, -1], [0.5], []):
        with pytest.raises(ValueError, match="need a non-empty 0/1 diagonal"):
            lattice.tridiagonal_power(diag, 1, [[1] * len(diag)])
    for v in ([1, -1], [1], [0, 0, 1]):
        with pytest.raises(ValueError, match="need 2 non-negative entries per vector"):
            lattice.tridiagonal_power([1, 0], 3, [[1, 0], v])


def test_waffle_counts_share_the_kernel():
    # w(i, j) = p(i, j) - p(i - 1, j - 1), at a size past the verify grid
    L, n = 9, 30
    for i, j in pyramid3d.waffle_points(L):
        p = pyramid3d.count_pyramid_paths(L, n, pyramid3d.paired_start_point(L, i, j))
        q = 0
        if j >= 1:
            q = pyramid3d.count_pyramid_paths(
                L, n, pyramid3d.paired_start_point(L, i - 1, j - 1)
            )
        assert pyramid3d.count_waffle_walks(L, n, (i, j)) == p - q
    assert pyramid3d.count_waffle_walks_to(L, 0, (0, 0)) == 1
    assert pyramid3d.count_waffle_walks_to(L, 0, (1, 0)) == 0


# -- the gather sweep against the per-point sum it replaced ------------------

def per_point_sweep(counts, pts, moves):
    """The old kernel, kept as the oracle of ``lattice.sweep``: the new count
    at each point sums the counts of its neighbours inside ``pts``."""
    index = {z: k for k, z in enumerate(pts)}
    rows = [[index[q] for q in (tuple(map(add, z, v)) for v in moves) if q in index]
            for z in pts]
    return [sum(counts[k] for k in row) for row in rows]


def signed_counts(rng, size):
    return [rng.randrange(-10**30, 10**30) for _ in range(size)]


def test_gather_sweep_equals_the_per_point_sum_on_every_cached_graph():
    rng = random.Random(11)
    for d in (2, 3):
        forward = [lattice.step_vector(j, d) for j in range(1, d + 2)]
        backward = [lattice.step_vector(-j, d) for j in range(1, d + 2)]
        for L in range(7):
            index, fam = lattice._graph(L, d)
            pts = list(index)
            for ch, moves in (("F", forward), ("B", backward), ("G", forward + backward)):
                for counts in ([1] * len(pts), signed_counts(rng, len(pts))):
                    assert lattice.sweep(counts, fam[ch]) == per_point_sweep(counts, pts, moves)


def test_gather_sweep_on_the_waffle_and_the_signed_array():
    rng = random.Random(12)
    moves = list(pyramid3d.CARDINAL.values())
    for L in range(9):
        index, gathers = pyramid3d._waffle_graph(L)
        pts = list(index)
        counts = signed_counts(rng, len(pts))
        assert lattice.sweep(counts, gathers) == per_point_sweep(counts, pts, moves)
    # the signed array, negative entries included, from its recurrence
    for L in range(6):
        idx = [(i, j) for i in range(L + 2) for j in range(i + 1)]
        w = [int(i <= L) if j == 0 else -int(i == L + 1) for i, j in idx]
        for arr in pyramid3d.signed_waffle_array(L, 6):
            assert arr == dict(zip(idx, w))
            w = per_point_sweep(w, idx, moves)


def test_gather_sweep_on_one_point_and_empty_domains():
    # itemgetter with one index returns a bare value, not a tuple
    for d in (2, 3):
        index, fam = lattice._graph(0, d)
        assert len(index) == 1
        for ch in "FBG":
            assert lattice.sweep([7], fam[ch]) == [0]
        assert lattice.count_table(0, d, "FB") == [0]
        assert lattice.count_table(0, d, "") == [1]
    index, gathers = pyramid3d._waffle_graph(0)
    assert list(index) == [(0, 0)] and lattice.sweep([5], gathers) == [0]
    # a one-point domain with a move onto itself, two points that see each
    # other, and a domain with no point at all
    for moves in ([(0,)], [(0,), (1,)], [(1,), (0,)]):
        _, gathers = lattice.neighbour_rows([(0,)], moves)
        assert lattice.sweep([5], gathers) == [5]
    _, gathers = lattice.neighbour_rows([(0,), (1,)], [(1,), (-1,)])
    assert lattice.sweep([3, 4], gathers) == [4, 3]
    _, gathers = lattice.neighbour_rows([], [(1,)])
    assert lattice.sweep([], gathers) == []
