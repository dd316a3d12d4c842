import itertools
import random

import pytest

from triwalks import flips, lattice
from triwalks.errors import (
    BadDirectionVector,
    EmptyPath,
    LengthMismatch,
    MixedInput,
    NotMixedPair,
)

from conftest import brute_generic


def test_swap_flip_rules():
    # mixed distinct indices commute
    assert flips.swap_flip((1, -2), 0) == (-2, 1)
    assert flips.swap_flip((-2, 1), 0) == (1, -2)
    # equal indices rotate: (s1, -s1) <-> (-s3, s3)
    assert flips.swap_flip((1, -1), 0) == (-3, 3)
    assert flips.swap_flip((-3, 3), 0) == (1, -1)
    with pytest.raises(NotMixedPair):
        flips.swap_flip((1, 2), 0)
    with pytest.raises(NotMixedPair):
        flips.swap_flip((1, -1), 5)


def test_swap_flip_is_involutive_and_valid():
    for L in (2, 3):
        for z in lattice.all_points(L, 2):
            for w in brute_generic(L, 2, z, 3):
                for i in range(2):
                    a, b = w[i], w[i + 1]
                    if (a > 0) == (b > 0):
                        continue
                    flipped = flips.swap_flip(w, i)
                    lattice.validate_path(L, 2, z, flipped)  # stays inside
                    assert flips.swap_flip(flipped, i) == w


def test_last_step_flip():
    assert flips.last_step_flip((5, -2)) == (5, 3)  # -s2 -> s3
    assert flips.last_step_flip((1,)) == (-3,)
    assert flips.last_step_flip((-3,)) == (1,)
    assert flips.last_step_flip((1,), d=3) == (-4,)
    with pytest.raises(EmptyPath):
        flips.last_step_flip(())


def test_last_step_flip_valid():
    for L in (2, 3):
        for z in lattice.all_points(L, 2):
            for w in brute_generic(L, 2, z, 2):
                flipped = flips.last_step_flip(w)
                lattice.validate_path(L, 2, z, flipped)
                assert flips.last_step_flip(flipped) == w


def test_transform_paper_example():
    # worked example: (-s3, -s3, -s2) to direction vector FBB
    assert flips.transform((-3, -3, -2), "FBB") == (1, -3, -1)


def test_transform_identity_and_errors():
    p = (1, 2, 1)
    assert flips.transform(p, "FFF") == p
    with pytest.raises(LengthMismatch):
        flips.transform(p, "FF")


def test_transform_round_trip_exhaustive():
    for L in (2, 3):
        O = lattice.origin(L)
        for n in range(1, 5):
            for dv in itertools.product("FB", repeat=n):
                dv = "".join(dv)
                for p in lattice.enumerate_paths(L, 2, O, dv):
                    for target in itertools.product("FB", repeat=n):
                        target = "".join(target)
                        q = flips.transform(p, target)
                        assert flips.direction_vector(q) == target
                        lattice.validate_path(L, 2, O, q)
                        assert flips.transform(q, dv) == p


def test_transform_random_schedules_agree():
    rng = random.Random(3)
    for _ in range(300):
        L = rng.randint(1, 4)
        n = rng.randint(1, 6)
        dv = "".join(rng.choice("FB") for _ in range(n))
        paths = lattice.enumerate_paths(L, 2, lattice.origin(L), dv)
        if not paths:
            continue
        p = paths[rng.randrange(len(paths))]
        target = "".join(rng.choice("FB") for _ in range(n))
        want = flips.transform(p, target)
        assert flips.transform_random(p, target, rng=rng) == want


def test_transform_trace_replays():
    p = (-3, -3, -2)
    q, events = flips.transform_with_trace(p, "FBB")
    assert q == (1, -3, -1)
    cur = list(p)
    for ev in events:
        doc = ev.to_json()
        assert doc["kind"] in ("swap", "last")
        i = doc["position"]
        if ev.kind == "swap":
            cur[i], cur[i + 1] = flips.swap_flip(tuple(cur), i)[i : i + 2]
        else:
            cur[i] = flips.last_step_flip(tuple(cur))[i]
        assert tuple(cur[i : i + len(doc["after"])]) == tuple(doc["after"])
    assert tuple(cur) == q


def test_transform_trace_paper_example_events():
    # one last-step flip, then the new forward step is carried left to slot 0
    q, events = flips.transform_with_trace((-3, -3, -2), "FBB")
    assert q == (1, -3, -1)
    assert events == [
        flips.FlipEvent("last", 2, (-2,), (3,)),
        flips.FlipEvent("swap", 1, (-3, 3), (1, -1)),
        flips.FlipEvent("swap", 0, (-3, 1), (1, -3)),
    ]
    assert flips.transform_with_trace((1, 2, 1), "FFF") == ((1, 2, 1), [])


def test_transform_rejects_bad_direction_vector_letters():
    with pytest.raises(BadDirectionVector):
        flips.transform((1, 2), "FX")
    with pytest.raises(BadDirectionVector):
        flips.transform_random((1, 2), "XB", seed=0)


def test_transport_rejects_steps_outside_the_dimension():
    for bad in ((1, 4), (0,), (-4, 1)):
        with pytest.raises(ValueError, match="is not a step"):
            flips.transform(bad, "F" * len(bad))
        with pytest.raises(ValueError, match="is not a step"):
            flips.transform_random(bad, "F" * len(bad), seed=0)
    with pytest.raises(ValueError, match="is not a step"):
        flips.algorithm1((1, 4))
    assert flips.transform((1, 4), "FF", d=3) == (1, 4)


def test_algorithm1():
    assert flips.algorithm1((1,)) == (-3,)
    assert flips.algorithm1((-3,)) == (1,)
    assert flips.algorithm1((1,), d=3) == (-4,)
    with pytest.raises(MixedInput):
        flips.algorithm1((1, -1))
    for L in range(1, 5):
        O = lattice.origin(L)
        for n in range(1, 7):
            for p in lattice.enumerate_paths(L, 2, O, "F" * n):
                q = flips.algorithm1(p)
                assert flips.direction_vector(q) == "B" * n
                lattice.validate_path(L, 2, O, q)
                assert q == flips.transform(p, "B" * n)
                assert flips.algorithm1(q) == p  # involution


def test_fold():
    assert flips.fold((1, -3)) == (1, -3, 3, -1)
    assert flips.fold(()) == ()


def test_tile_paper_example():
    t = flips.tile(flips.fold((1, -3, -1)))
    assert flips.read_path(t, "BFF") == (-3, 1, 2)
    assert flips.read_path(t, "FBB") == (1, -3, -1)
    with pytest.raises(LengthMismatch):
        flips.read_path(t, "FF")


def test_tile_empty():
    t = flips.tile(())
    assert t.tiles == {}
    assert flips.read_path(t, "") == ()


def test_tiling_readout_all_dvs_matches_transform():
    t = flips.tile(flips.fold((1, -3, -1)))
    for dv in itertools.product("FB", repeat=3):
        dv = "".join(dv)
        assert flips.read_path(t, dv) == flips.transform((1, -3, -1), dv)


def test_tiling_closure_and_symmetry():
    tops_seen = set()
    for L in (2, 3):
        O = lattice.origin(L)
        for n in (1, 2, 3, 4):
            for dv in itertools.product("FB", repeat=n):
                for p in lattice.enumerate_paths(L, 2, O, "".join(dv)):
                    t = flips.tile(flips.fold(p))
                    assert len(t.tiles) == n * n
                    for left, tid in t.tiles.items():
                        assert 1 <= tid <= 9
                        tops_seen.add(t.top_pair(left))
                    for ((x1, y1), (x2, y2)), lab in t.edges.items():
                        assert t.edges[((-x2, y2), (-x1, y1))] == -lab
    # all nine (forward, backward) ordered pairs occur as tile tops
    assert tops_seen == {(j, -k) for j in (1, 2, 3) for k in (1, 2, 3)}


def test_tile_ids_cover_1_to_9():
    ids = {flips.tile_id(j, -k) for j in (1, 2, 3) for k in (1, 2, 3)}
    assert ids == set(range(1, 10))


def test_tile_set_tops_and_bottoms_each_occur_once():
    # the nine tile types: each (forward, backward) ordered pair is the top
    # of exactly one tile, and each (backward, forward) pair the bottom of
    # exactly one
    tops = [(j, -k) for j in (1, 2, 3) for k in (1, 2, 3)]
    bottoms = [flips._swap_pair(*top, 2) for top in tops]
    assert len(set(bottoms)) == 9
    assert set(bottoms) == {(-k, j) for j in (1, 2, 3) for k in (1, 2, 3)}


def test_general_dimension_flip_round_trip():
    for L in (1, 2):
        for d in (3, 4):
            O = lattice.origin(L, d)
            for n in (1, 2, 3):
                for dv in itertools.product("FB", repeat=n):
                    dv = "".join(dv)
                    for p in lattice.enumerate_paths(L, d, O, dv):
                        q = flips.transform(p, "B" * n, d)
                        lattice.validate_path(L, d, O, q)
                        assert flips.transform(q, dv, d) == p
