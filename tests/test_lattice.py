import functools
import tracemalloc

import pytest

from triwalks import lattice, pyramid3d, scaffold2d
from triwalks.errors import CapExceeded, OutOfLattice

from conftest import brute_forward, brute_generic


def test_origin():
    assert lattice.origin(3, 2) == (0, 0, 3)
    assert lattice.origin(0, 2) == (0, 0, 0)
    assert lattice.origin(3, 3) == (0, 0, 0, 3)


def test_step_vectors_triangle():
    assert lattice.step_vector(1) == (1, 0, -1)
    assert lattice.step_vector(2) == (-1, 1, 0)
    assert lattice.step_vector(3) == (0, -1, 1)
    assert lattice.step_vector(-1) == (-1, 0, 1)


def test_validate_path():
    pts = lattice.validate_path(3, 2, (0, 0, 3), (1, 2))
    assert pts == [(0, 0, 3), (1, 0, 2), (0, 1, 2)]
    with pytest.raises(OutOfLattice) as exc:
        lattice.validate_path(3, 2, (0, 0, 3), (2,))
    assert exc.value.prefix_len == 1
    with pytest.raises(OutOfLattice) as exc:
        lattice.validate_path(2, 2, (0, 0, 2), (1, 1, 1))
    assert exc.value.prefix_len == 3


@pytest.mark.parametrize("steps, bad", [
    ((True, 1.0), "True"),
    ((1, 1.0), "1.0"),
    (("s1",), "'s1'"),
    ((1, 0), "0"),
    ((1, -4), "4"),
])
def test_validate_path_refuses_steps_that_are_not_ints(steps, bad):
    # a bool or a float equal to a step is no step, and a string is the same
    # ValueError as an index out of range, not a TypeError from abs()
    with pytest.raises(ValueError) as exc:
        lattice.validate_path(3, 2, (0, 0, 3), steps)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"step index {bad} out of range for d=2"


def test_walk_inverses_hold_no_list_of_points():
    # one point per letter would take a tuple and its list slot, over 70
    # bytes a letter; the letters and their string take about 17
    cases = [(scaffold2d.TrapeziumScaffolding(21).triangular_to_motzkin, (1, 2, 3) * 33333 + (1,)),
             (functools.partial(pyramid3d.pyramid_to_waffle, lattice.origin(12, 3)),
              (1, 2, 3, 4) * 2500)]
    for inverse, walk in cases:
        tracemalloc.start()
        try:
            inverse(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * len(walk), (len(walk), peak)


def test_count_paths_paper_values():
    O = lattice.origin(3)
    assert lattice.count_paths(3, 2, O, "FF") == 2
    # every direction vector of length 2 gives the same count, total 8
    dvs = ["FF", "FB", "BF", "BB"]
    assert [lattice.count_paths(3, 2, O, dv) for dv in dvs] == [2, 2, 2, 2]
    assert lattice.count_generic(3, 2, O, 2) == 8
    assert lattice.count_paths(3, 2, O, "FFFF") == 8


def test_count_generic_matches_brute_force():
    O = lattice.origin(3)
    assert lattice.count_generic(3, 2, O, 0) == 1
    # frozen from the enumeration oracle; equals 2^4 * 8
    assert len(brute_generic(3, 2, O, 4)) == 128
    assert lattice.count_generic(3, 2, O, 4) == 128


def test_enumerate_is_lexicographic_and_matches_counts():
    O = lattice.origin(3)
    assert lattice.enumerate_paths(3, 2, O, "FF") == [(1, 1), (1, 2)]
    assert lattice.enumerate_paths(1, 2, lattice.origin(1), "F") == [(1,)]
    assert lattice.enumerate_paths(3, 2, O, "") == [()]
    for L in range(4):
        for n in range(5):
            for dv in ("F" * n, "B" * n):
                paths = lattice.enumerate_paths(L, 2, lattice.origin(L), dv)
                by_index = sorted(paths, key=lambda p: [abs(s) for s in p])
                assert by_index == paths
                assert len(paths) == lattice.count_paths(L, 2, lattice.origin(L), dv)


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        lattice.enumerate_paths(4, 2, lattice.origin(4), "F" * 6, cap=3)


def test_dp_equals_enumeration_oracle():
    for L in range(4):
        for d in (2, 3):
            O = lattice.origin(L, d)
            for n in range(4):
                brute = brute_forward(L, d, O, n)
                assert lattice.count_paths(L, d, O, "F" * n) == len(brute)
                assert lattice.enumerate_paths(L, d, O, "F" * n) == sorted(brute)
                assert lattice.count_generic(L, d, O, n) == len(brute_generic(L, d, O, n))


def test_dv_independence_small():
    import itertools

    for L in range(5):
        for d in (2, 3):
            for z in lattice.all_points(L, d):
                for n in range(4):
                    ref = lattice.count_paths(L, d, z, "F" * n)
                    for dv in itertools.product("FB", repeat=n):
                        assert lattice.count_paths(L, d, z, "".join(dv)) == ref


def test_forward_equals_backward_counts():
    for L in range(5):
        for z in lattice.all_points(L, 2):
            for n in range(6):
                f = lattice.count_paths(L, 2, z, "F" * n)
                b = lattice.count_paths(L, 2, z, "B" * n)
                assert f == b


def test_bicolored_pairs():
    assert lattice.count_bicolored_pairs(3, 2, 0) == 2
    # brute force: 4 walks with one forward and one backward step
    O = lattice.origin(3)
    walks = [w for w in brute_generic(3, 2, O, 2)
             if sum(1 for s in w if s > 0) == 1]
    assert len(walks) == 4
    assert lattice.count_bicolored_pairs(3, 1, 1) == 4
    assert lattice.count_bicolored_pairs(7, 0, 0) == 1
    for p, q in ((2, -1), (-1, 2)):
        with pytest.raises(ValueError, match="need p, q >= 0"):
            lattice.count_bicolored_pairs(3, p, q)


def test_serialization():
    assert lattice.format_point((0, 1, 2)) == "0,1,2"
    assert lattice.parse_point("0,1,2") == (0, 1, 2)
    assert lattice.format_steps((1, -3, 2)) == "s1 -s3 s2"
    assert lattice.parse_steps("s1 -s3 s2") == (1, -3, 2)
    with pytest.raises(ValueError):
        lattice.parse_steps("x9")


def test_move_adds_the_step_vector():
    # the step table and the explicit 3- and 4-coordinate sums against the
    # definition, in every dimension the package walks in
    for d in range(1, 5):
        z = tuple(range(5, 5 + d + 1))
        for j in range(1, d + 2):
            for step in (j, -j):
                want = tuple(a + b for a, b in zip(z, lattice.step_vector(step, d)))
                assert lattice.move(z, step) == want
                assert lattice.move(list(z), step) == want
        for step in (0, d + 2, -(d + 2)):
            with pytest.raises(ValueError, match=f"step index {abs(step)} out of range for d={d}"):
                lattice.move(z, step)


# every token form: the result, or the error text
STEP_TOKENS = {
    "s1": (1,),
    "-s3": (-3,),
    "s10": (10,),
    "s0": (0,),
    "s01": (1,),
    "-s": "bad step token '-s'; want s<k> or -s<k>",
    "s-1": "bad step token 's-1'; want s<k> or -s<k>",
    "S1": "bad step token 'S1'; want s<k> or -s<k>",
    "s١": (1,),  # ARABIC-INDIC DIGIT ONE is a digit to int()
    "": (),
    "s²": "bad step token 's²'; want s<k> or -s<k>",  # a digit, but not to int()
    "-s" + "7" * 4400: "bad step token: value too large (4400 digits)",  # no digit echoed
}


@pytest.mark.parametrize(
    "text", [pytest.param(t, id=f"{t[:2]}<{len(t) - 2} digits>") if len(t) > 80 else t
             for t in STEP_TOKENS])
def test_parse_steps_token_table(text):
    want = STEP_TOKENS[text]
    for _ in range(2):  # the second call sees nothing kept by the first
        if isinstance(want, str):
            with pytest.raises(ValueError) as exc:
                lattice.parse_steps(text)
            assert str(exc.value) == want
        else:
            assert lattice.parse_steps(text) == want
            assert lattice.parse_steps(f" s2 {text}\t-s1\n") == (2, *want, -1)


def test_parse_point_coordinate_past_the_digit_limit():
    with pytest.raises(ValueError) as exc:
        lattice.parse_point("0,-" + "7" * 4400 + ",1")
    assert str(exc.value) == "bad point: value too large (4400 digits)"
    with pytest.raises(ValueError, match="bad point '0,x'; want comma-separated ints"):
        lattice.parse_point("0,x")
