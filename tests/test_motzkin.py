import random

import pytest

from triwalks import motzkin
from triwalks.errors import EmptySet, HeightOutOfRange, NotAPath
from triwalks.motzkin import MotzkinWord

from conftest import brute_motzkin_words, word_amplitude


def test_word_validation():
    MotzkinWord("UFD")
    MotzkinWord("DD", start_height=2)
    with pytest.raises(NotAPath):
        MotzkinWord("DU")
    with pytest.raises(NotAPath):
        MotzkinWord("UF")
    with pytest.raises(NotAPath):
        MotzkinWord("xyz")


def test_colored_words():
    w = MotzkinWord.from_word("UfD")
    assert w.steps == "UFD"
    assert w.colors == "bwb"
    assert w.to_word() == "UfD"
    assert w.direction_vector() == "FBF"
    assert MotzkinWord("UFD").direction_vector() == "FFF"


def test_amplitude():
    assert motzkin.amplitude("FFFF") == 1
    assert motzkin.amplitude("UFD") == 3
    assert motzkin.amplitude("UD") == 2
    assert motzkin.amplitude("") == 0
    with pytest.raises(NotAPath):
        motzkin.amplitude(MotzkinWord("D", start_height=1))


def test_amplitude_matches_oracle():
    for n in range(7):
        for w in brute_motzkin_words(n):
            assert motzkin.amplitude(w) == word_amplitude(w)


def test_amplitude_parity_means_flat_at_top():
    for n in range(7):
        for w in brute_motzkin_words(n):
            word = MotzkinWord(w)
            hs = word.heights()
            flat_at_top = any(
                c == "F" and h == max(hs) for c, h in zip(w, hs)
            )
            assert (motzkin.amplitude(w) % 2 == 1) == flat_at_top


def test_count_meanders_paper_values():
    assert motzkin.count_meanders(3, 3, 0) == 4
    assert motzkin.count_meanders(3, 3, 1) == 4
    assert motzkin.count_meanders(6, 0, 0) == 1
    assert motzkin.count_meanders(6, 0, 2) == 0
    assert motzkin.count_meanders(3, 4, 0) == 8
    with pytest.raises(HeightOutOfRange):
        motzkin.count_meanders(3, 2, 5)


def test_count_by_amplitude():
    # length 4: one path of amplitude 1, four of 2, three of 3, one of 4
    assert [motzkin.count_paths_by_amplitude(4, L) for L in (1, 2, 3, 4)] == [1, 5, 8, 9]
    assert motzkin.count_paths_by_amplitude(0, 0) == 1
    assert motzkin.count_paths_by_amplitude(0, 9) == 1
    # bound inactive: the plain Motzkin number, frozen from the oracle
    assert len(brute_motzkin_words(6)) == 51
    assert motzkin.count_paths_by_amplitude(6, 100) == 51


def test_meander_row_is_the_last_row_of_the_table():
    for L in range(0, 14):
        for n in (0, 1, 2, 7, 60):
            assert motzkin.meander_row(L, n) == motzkin.meander_count_table(L, n)[n]
    for L, n in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match=">= 0"):
            motzkin.meander_row(L, n)


def test_amplitude_monotone_and_stabilizes(motzkin_by_amplitude):
    for n in range(8):
        values = [motzkin.count_paths_by_amplitude(n, L) for L in range(n + 2)]
        assert values == sorted(values)
        assert values[-1] == len(brute_motzkin_words(n))
        # cumulative sums of exact-amplitude classes reproduce the counts
        for L in range(n + 2):
            exact = sum(
                len(ws) for a, ws in motzkin_by_amplitude[n].items() if a <= L
            )
            assert exact == values[L]


def test_enumerate_meanders():
    assert [w.steps for w in motzkin.enumerate_meanders(1, 2, 0)] == ["F"]
    assert [w.steps for w in motzkin.enumerate_meanders(2, 2, 0)] == ["UD", "FF"]
    assert [w.steps for w in motzkin.enumerate_meanders(2, 1, 0)] == ["FF"]
    for L in range(7):
        for n in range(9):
            for i in range(L // 2 + 1):
                words = motzkin.enumerate_meanders(n, L, i)
                assert len(words) == motzkin.count_meanders(L, n, i)
                assert len({w.steps for w in words}) == len(words)


def test_enumeration_matches_amplitude_definition(motzkin_by_amplitude):
    for n in range(7):
        for L in range(7):
            got = {w.steps for w in motzkin.enumerate_meanders(n, L, 0)}
            want = {
                w
                for a, ws in motzkin_by_amplitude[n].items()
                if a <= L
                for w in ws
            }
            assert got == want


def test_uniform_sample_support_and_determinism():
    assert motzkin.uniform_sample(0, 3, seed=1).steps == ""
    support = {motzkin.uniform_sample(3, 2, seed=s).steps for s in range(200)}
    assert support == {w.steps for w in motzkin.enumerate_meanders(3, 2, 0)}
    a = motzkin.uniform_sample(9, 4, seed=42)
    b = motzkin.uniform_sample(9, 4, seed=42)
    assert a == b
    with pytest.raises(EmptySet):
        motzkin.uniform_sample(1, 0, seed=0)


def test_uniform_sample_start_height_range():
    # L = 5 allows heights 0..2; both ends are usable, anything outside is not
    assert motzkin.uniform_sample(6, 5, seed=1, start_height=0).start_height == 0
    assert motzkin.uniform_sample(6, 5, seed=1, start_height=2).start_height == 2
    for h in (-1, -3, 3, 10):
        with pytest.raises(HeightOutOfRange):
            motzkin.uniform_sample(6, 5, seed=1, start_height=h)


def test_uniform_sample_is_exactly_uniform():
    # distribution check at modest size; the chi-square version lives in
    # the acceptance suite
    rng = random.Random(0)
    counts = {w.steps: 0 for w in motzkin.enumerate_meanders(4, 3, 0)}
    draws = 4000
    for _ in range(draws):
        counts[motzkin.uniform_sample(4, 3, rng=rng).steps] += 1
    assert len(counts) == 8
    for c in counts.values():
        assert abs(c - draws / 8) < 5 * (draws / 8) ** 0.5
