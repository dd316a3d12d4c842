"""The indexed counting kernel: whole tables, thin callers, grids, large sizes."""

import json
import pathlib

import pytest

from triwalks import lattice, motzkin, pyramid3d, verify
from triwalks.errors import BadDirectionVector, OutOfLattice, TriwalksError

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
