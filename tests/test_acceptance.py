"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Grids and tolerances are fixed here and nowhere else; the helpers in
triwalks.verify do the heavy lifting so the command line exercises exactly
the same code.
"""

import math

from triwalks import lattice, motzkin, verify
from triwalks.verify import CHI2_999

from conftest import brute_forward, brute_motzkin_words, word_amplitude


def _criterion(number, result):
    line = f"criterion {number:2d}: {'PASS' if result.ok else 'FAIL'}  {result.name} ({result.checked} checks)"
    print(line)
    assert result.ok, (result.name, result.counterexample)


def test_criterion_01_forward_vs_motzkin():
    # independent brute forces on both sides, plus the dynamic programs
    for L in range(6):
        for n in range(9):
            fwd = len(brute_forward(L, 2, lattice.origin(L), n))
            mz = sum(1 for w in brute_motzkin_words(n) if word_amplitude(w) <= L)
            assert fwd == mz == lattice.count_paths(L, 2, lattice.origin(L), "F" * n)
            assert mz == motzkin.count_paths_by_amplitude(n, L)
    # the advertised data points
    assert len(brute_forward(2, 2, lattice.origin(2), 2)) == 2
    assert len(brute_forward(5, 2, lattice.origin(5), 2)) == 2
    assert len(brute_forward(3, 2, lattice.origin(3), 4)) == 8
    split = {}
    for w in brute_motzkin_words(4):
        split[word_amplitude(w)] = split.get(word_amplitude(w), 0) + 1
    assert split == {1: 1, 2: 4, 3: 3, 4: 1}
    _criterion(1, verify.check_forward_equals_motzkin(max_L=5, max_n=8))


def test_criterion_02_bicolored_theorem():
    # walks counted by interleaving DP, words by color choice times the
    # bounded Motzkin count (itself brute forced in criterion 1)
    for L in range(5):
        for p in range(7):
            for q in range(7 - p):
                walks = lattice.count_bicolored_pairs(L, p, q)
                words = math.comb(p + q, p) * motzkin.count_paths_by_amplitude(p + q, L)
                assert walks == words, (L, p, q)
    _criterion(2, verify.check_generic_ratio(max_L=4, max_n=8))


def test_criterion_03_transport_and_tiling():
    _criterion(3, verify.check_dv_independence(max_L=4, max_n=6))
    _criterion(3, verify.check_transform_bijection(max_L=4, max_n=6, trials=500))
    _criterion(3, verify.check_algorithm1_involution(max_L=4, max_n=6))
    _criterion(3, verify.check_tiling(max_L=3, max_n=5))


def test_criterion_04_profiles():
    _criterion(4, verify.check_profiles(max_L=8))
    _criterion(4, verify.check_counts_via_profiles(max_L=5, max_n=8))


def test_criterion_05_transducers():
    _criterion(5, verify.check_transducer_roundtrip(max_L=5, max_n=8, seeds=range(20)))
    _criterion(5, verify.check_prefix_property(max_L=4, max_n=6))


def test_criterion_06_trapezium():
    _criterion(6, verify.check_scaffolding_validity(max_L=7, seeds=range(20)))
    _criterion(6, verify.check_trapezium(max_L=7, n_random=1000, max_len=40))


def test_criterion_07_omega():
    _criterion(7, verify.check_omega(max_L=5, max_n=7))


def test_criterion_08_pyramid_waffle():
    _criterion(8, verify.check_pyramid_waffle(max_L=4, max_n=7))
    _criterion(8, verify.check_scaffolding3d(max_L=5))
    _criterion(8, verify.check_waffle_bijection(max_L=3, max_n=5))


def test_criterion_09_generating_function():
    # the closed form is an exact constant term, so the three legs compare
    # integers and no tolerance applies
    _criterion(9, verify.check_gf(max_L=4, max_n=12))
    _criterion(9, verify.check_reflection_pointwise(max_L=4, max_n=10))


def test_criterion_10_sampling():
    assert CHI2_999[7] == 24.322  # 8 classes at significance 0.999
    _criterion(10, verify.check_sampling(L=3, n=4, draws=8000))
