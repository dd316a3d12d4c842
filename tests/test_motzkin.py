import hashlib
import random
import tracemalloc

import pytest

from triwalks import motzkin, scaffold2d
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


# sha256 of the lines written below, taken while uniform_sample still kept the
# whole meander table: the draws of both samplers, and the type and message of
# every error, over L in -1..13, these sizes, every start height and one past
# each end, and three seeds
PINNED_DRAWS = "5e33a466014713912d69ad00e2c0cc6cd8c3c2917d2ef2e4fa8afc53aff119ac"


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptySet, HeightOutOfRange, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_sampler_draws_are_pinned():
    digest = hashlib.sha256()
    for L in range(-1, 14):
        for n in (-1, 0, 1, 2, 3, 7, 40, 300):
            for seed in (0, 1, 2):
                for i in range(-1, L // 2 + 2):
                    word = _outcome(motzkin.uniform_sample, n, L, seed=seed, start_height=i)
                    word = getattr(word, "steps", word)
                    digest.update(f"motzkin:{L}:{n}:{i}:{seed}:{word}\n".encode())
                path = _outcome(scaffold2d.sample_forward_path, L, n, seed=seed)
                digest.update(f"forward:{L}:{n}:{seed}:{path}\n".encode())
    assert digest.hexdigest() == PINNED_DRAWS


@pytest.mark.parametrize(
    "sample",
    [lambda: motzkin.uniform_sample(6000, 40, seed=1),
     lambda: scaffold2d.sample_forward_path(40, 6000, seed=1)],
    ids=["uniform_sample", "sample_forward_path"],
)
def test_samplers_do_not_hold_the_meander_table(sample):
    # the (n+1) x (H+1) table of big ints alone is 80 MB at this size; the
    # height-0 column is about 4 MB
    tracemalloc.start()
    try:
        sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
