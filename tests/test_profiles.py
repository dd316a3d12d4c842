import random

import pytest

from triwalks import lattice, motzkin, profiles
from triwalks.errors import OutOfLattice

from conftest import brute_forward


def test_profile_examples():
    assert profiles.profile((5, 0, 0)) == (1, 0, 0)
    assert profiles.profile((0, 5, 0)) == (1, 0, 0)
    assert profiles.profile((0, 0, 5)) == (1, 0, 0)
    assert profiles.profile((1, 1, 3)) == (1, 2, 1)


def test_profile_null_for_outside_points():
    assert profiles.profile((-1, 2, 2)) == (0, 0)
    assert profiles.profile((3, -1, 1)) == (0, 0)
    assert profiles.profile((2, 2, -1)) == (0, 0)


def test_profile_polynomial_expansion():
    # (1-x^2)^2 (1-x^4) / (1-x)^2 = 1 + 2x + x^2 - x^4 - 2x^5 - x^6
    assert profiles.point_polynomial((1, 1, 3)) == [1, 2, 1, 0, -1, -2, -1]


def test_profile_leading_one_inside():
    for L in range(1, 9):
        for z in lattice.all_points(L, 2):
            p = profiles.profile(z)
            assert p[0] == 1
            assert all(v >= 0 for v in p)


def test_cell_representation_examples():
    assert profiles.cell_representation((5, 0, 0)) == [(0, 0)]
    # floors of (1,1,3) have sizes (1,2,1); at f=2 the bound min(f, x1, x2,
    # x1+x2-f) = 0 pins the cell to index 0
    assert profiles.cell_representation((1, 1, 3)) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert profiles.floor_sizes(profiles.cell_representation((1, 1, 3)), 2) == (1, 2, 1)


def test_cells_match_profiles_exhaustively():
    for L in range(0, 9):
        rep = profiles.check_cells_match_profiles(L)
        assert rep.ok, rep.violations[:3]


def test_profile_identities():
    for L in (1, 4, 5):
        rep = profiles.check_profile_identities(L)
        assert rep.ok, rep.violations[:3]
    assert profiles.check_profile_identities(1).checked > 0


def test_edge_profile_is_a_block_of_ones():
    # points k steps up the lower-left edge have profile (1,...,1,0,...,0)
    for L in range(1, 7):
        H = L // 2
        for k in range(H + 1):
            z = (k, 0, L - k)
            want = tuple(1 if i <= k else 0 for i in range(H + 1))
            assert profiles.profile(z) == want


def test_counts_via_profiles_small():
    rep = profiles.check_forward_counts_via_profiles(3, 4)
    assert rep.ok, rep.violations[:3]
    # the advertised data point: 8 forward walks of length 3 from (1, 0, 2)
    assert lattice.count_paths(3, 2, (1, 0, 2), "FFF") == 8
    assert motzkin.count_meanders(3, 3, 0) + motzkin.count_meanders(3, 3, 1) == 8
    assert len(brute_forward(3, 2, (1, 0, 2), 3)) == 8


def test_counts_via_profiles_reduce_to_corner():
    for L in range(1, 6):
        for n in range(7):
            f = lattice.count_paths(L, 2, lattice.origin(L), "F" * n)
            assert f == motzkin.count_paths_by_amplitude(n, L)


def test_forward_count_equals_the_dp_past_the_grid():
    L, n, z = 40, 400, (13, 11, 16)
    dv = "".join(random.Random(9).choice("FB") for _ in range(n))
    assert profiles.forward_count(L, z, n) == lattice.count_paths(L, 2, z, dv)


def test_forward_count_times_two_to_the_n_is_the_generic_table():
    L, n = 16, 120
    want = lattice.generic_table(L, 2, n)
    assert [profiles.forward_count(L, z, n) << n for z in lattice.all_points(L, 2)] == want


@pytest.mark.parametrize("start", [(0, 0, 5), (1, 1, 1, 0), (0, -1, 4), (1, 2)])
def test_forward_count_checks_the_start_by_bounds(start):
    lattice._graph.cache_clear()
    with pytest.raises(OutOfLattice, match=r"not in the lattice of side 3, d=2"):
        profiles.forward_count(3, start, 2)
    assert lattice._graph.cache_info().currsize == 0


def test_forward_count_rejects_a_negative_length():
    with pytest.raises(ValueError, match=">= 0"):
        profiles.forward_count(3, (0, 0, 3), -1)
    assert profiles.forward_count(0, (0, 0, 0), 0) == 1
    assert profiles.forward_count(0, (0, 0, 0), 3) == 0


def test_report_summary_strings():
    rep = profiles.check_profile_identities(2)
    assert "ok" in rep.summary()
