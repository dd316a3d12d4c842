import hashlib
import json
import pathlib

import pytest

from triwalks import lattice, motzkin, omega, scaffold2d
from triwalks.errors import HeightOutOfRange, NotInImage
from triwalks.motzkin import MotzkinWord
from triwalks.omega import OmegaImage

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_base_cases():
    img = omega.omega(3, 0, ())
    assert img.is_meander and img.meander.steps == ""
    img = omega.omega(3, 1, ())
    assert not img.is_meander and img.path == ()
    with pytest.raises(HeightOutOfRange):
        omega.omega(3, 2, ())


def test_reflection_is_an_involution():
    p = (1, 2, -3, 3)
    assert omega.reflect(omega.reflect(p)) == p
    assert omega.reflect((1,)) == (-1,)
    assert omega.reflect((2,)) == (-3,)
    assert omega.reflect((3,)) == (-2,)


def test_partition_sizes_figure_example():
    # 8 walks of length 3 from one edge step up split into 4 meanders
    # starting at height 1 and 4 walks from the corner
    L, n, k = 3, 3, 1
    wlks = lattice.enumerate_paths(L, 2, omega.edge_point(L, k), "F" * n)
    assert len(wlks) == 8
    meanders, lowered = [], []
    for p in wlks:
        img = omega.omega(L, k, p)
        (meanders if img.is_meander else lowered).append(img)
    assert len(meanders) == 4 and len(lowered) == 4
    assert {m.meander.steps for m in meanders} == {
        w.steps for w in motzkin.enumerate_meanders(n, L, 1)
    }
    assert {im.path for im in lowered} == set(
        lattice.enumerate_paths(L, 2, omega.edge_point(L, 0), "F" * n)
    )


def test_bijection_exhaustive():
    for L in range(5):
        H = L // 2
        for n in range(6):
            for k in range(H + 1):
                wlks = lattice.enumerate_paths(L, 2, omega.edge_point(L, k), "F" * n)
                got_m, got_g = set(), set()
                for p in wlks:
                    img = omega.omega(L, k, p)
                    assert omega.omega_inverse(L, k, img) == p
                    if img.is_meander:
                        assert img.meander.start_height == k
                        assert motzkin.fits_amplitude(img.meander, L)
                        got_m.add(img.meander.steps)
                    else:
                        got_g.add(img.path)
                assert got_m == {w.steps for w in motzkin.enumerate_meanders(n, L, k)}
                want_g = (
                    set(lattice.enumerate_paths(L, 2, omega.edge_point(L, k - 1), "F" * n))
                    if k
                    else set()
                )
                assert got_g == want_g


def test_top_height_meander_first_letters():
    # at the top height no meander starts with U; when L is even none
    # starts with F either
    for L in (2, 3, 4, 5):
        H = L // 2
        for n in (1, 2, 3, 4, 5):
            for p in lattice.enumerate_paths(L, 2, omega.edge_point(L, H), "F" * n):
                img = omega.omega(L, H, p)
                if img.is_meander and img.meander.steps:
                    first = img.meander.steps[0]
                    assert first != "U"
                    if L % 2 == 0:
                        assert first != "F"


def test_inverse_rejects_non_images():
    with pytest.raises(NotInImage):
        omega.omega_inverse(3, 0, OmegaImage(path=()))
    with pytest.raises(NotInImage):
        # meander at the wrong start height
        omega.omega_inverse(3, 0, OmegaImage(meander=MotzkinWord("D", start_height=1)))
    with pytest.raises(NotInImage):
        # amplitude too large for the lattice
        omega.omega_inverse(2, 0, OmegaImage(meander=MotzkinWord("UFD")))


def test_corner_bijection_counts():
    for L in range(6):
        for n in range(8):
            wlks = lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n)
            images = {omega.forward_to_motzkin_exp(L, p).steps for p in wlks}
            assert len(images) == len(wlks) == motzkin.count_paths_by_amplitude(n, L)
            for w in images:
                assert omega.forward_to_motzkin_exp(
                    L, omega.motzkin_to_forward_exp(L, w)
                ).steps == w


def test_composition_with_transducer_is_a_permutation():
    from triwalks.scaffold2d import TrapeziumScaffolding

    L, n = 4, 5
    scaf = TrapeziumScaffolding(L)
    words = {w.steps for w in motzkin.enumerate_meanders(n, L, 0)}
    image = {
        omega.forward_to_motzkin_exp(L, scaf.motzkin_to_triangular(w)).steps
        for w in words
    }
    assert image == words  # a permutation of the same finite set


def test_golden_pairings():
    doc = json.loads((GOLDEN / "omega_pairings.json").read_text())
    for key, pairs in doc.items():
        L, n = map(int, key.split(":"))
        got = {
            lattice.format_steps(p): omega.forward_to_motzkin_exp(L, p).steps
            for p in lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n)
        }
        assert got == dict(pairs)


def test_call_counter_records():
    stats = {}
    omega.omega(4, 0, (1, 1, 2, 3), stats)
    assert stats["calls"] >= 1


# sha256 of the lines "L:n:image:forward calls:inverse calls" below, taken
# before the chain of arrows was written as data
PINNED_IMAGES_AND_CALLS = "f1d9f04a4a584899fd79a24c0848de3797d21c32e0e5e88c51bb981ea85f3b1b"


def test_images_and_call_counts_are_pinned():
    digest = hashlib.sha256()
    for L in (3, 4, 7, 8, 21):
        for n in (50, 200):
            walk = scaffold2d.sample_forward_path(L, n, seed=n + L)
            fwd, inv = {}, {}
            word = omega.forward_to_motzkin_exp(L, walk, fwd)
            assert omega.motzkin_to_forward_exp(L, word, inv) == walk
            digest.update(f"{L}:{n}:{word.steps}:{fwd['calls']}:{inv['calls']}\n".encode())
    assert digest.hexdigest() == PINNED_IMAGES_AND_CALLS
