"""The recursive bijection between shifted forward walks and meanders.

Write G_n(k) for the forward walks of length n starting k steps up the
bottom-left edge of the triangle (at the point (k, 0, L - k)), and M_n(k)
for the meanders of length n starting at height k with amplitude at most L.
The map built here sends G_n(k) bijectively onto M_n(k) union G_n(k - 1),
which telescopes into the count identity |M_n(k)| = |G_n(k)| - |G_n(k-1)|
and, at k = 0, into a bijection between forward walks from the origin and
bounded Motzkin paths.

The recursion peels the first step. A walk beginning with s_2 is sent to
G_n(k - 1) outright: prefix the remaining walk with -s_3 and transport the
result to the all-forward direction vector. A walk beginning with s_1
enters a chain of recursions at neighbouring levels, re-recursing each walk
image until a meander appears; the meander leaves prefixed with the letter
of its exit, and a walk out of the last exit leaves prefixed with -s_1 and
transported, landing in G_n(k - 1). At k = H the level k + 1 does not
exist; instead the tail is first reflected through the triangle's vertical
midline (swap the outer coordinates, relabel steps s_1, s_2, s_3 to
-s_1, -s_3, -s_2) and transported forward, and the chain continues on the
side the parity of L dictates. ``_chain`` describes the chain at each
level once: ``omega`` follows it forward and ``omega_inverse`` walks it
backwards, every arrow being reversible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import HeightOutOfRange, NotInImage, OutOfLattice, TooLong
from .flips import transform
from .motzkin import _HEIGHT_MOVE, MotzkinWord, fits_amplitude
from .lattice import check_forward, origin, validate_path

S1, S2, SB1, SB3 = 1, 2, -1, -3


def edge_point(L, k):
    """The start point k steps up the bottom-left edge."""
    return (k, 0, L - k)


def reflect(steps):
    """Vertical-midline reflection: swap outer coordinates, negate steps."""
    table = {1: -1, 2: -3, 3: -2, -1: 1, -3: 2, -2: 3}
    return tuple(table[s] for s in steps)


@dataclass(frozen=True)
class OmegaImage:
    """Either a meander starting at height k, or a walk one level down."""

    meander: MotzkinWord | None = None
    path: tuple | None = None

    @property
    def is_meander(self):
        return self.meander is not None


def _to_forward(steps):
    return transform(steps, "F" * len(steps))


def _chain(L, k):
    """The arrows that follow an s_1 step at level k, as data: whether the
    tail is reflected and transported forward before it enters the chain,
    and the (exit letter, level) pairs the chain recurses at, in order.

    Below H the tail enters as it is and the pairs are (U, k + 1), (F, k),
    (D, k - 1). At k = H the level H + 1 does not exist: the tail enters
    reflected, and the pairs are (F, H) for odd L only, then (D, H - 1). A
    meander out of a pair leaves with the pair's letter prefixed; a walk out
    of the last pair leaves past the end, prefixed with -s_1 and transported.
    """
    if k < L // 2:
        return False, (("U", k + 1), ("F", k), ("D", k - 1))
    return True, ((("F", k), ("D", k - 1)) if L % 2 else (("D", k - 1),))


def omega(L, k, steps, stats=None):
    """Image of a forward walk from edge_point(L, k); length is preserved."""
    H = L // 2
    if not 0 <= k <= H:
        raise HeightOutOfRange(f"k={k} not in 0..{H} for L={L}")
    if stats is not None:
        stats["calls"] = stats.get("calls", 0) + 1
    n = len(steps)
    if n == 0:
        return OmegaImage(meander=MotzkinWord("", 0)) if k == 0 else OmegaImage(path=())
    first, tail = steps[0], tuple(steps[1:])
    if first == S2:
        return OmegaImage(path=_to_forward((SB3,) + tail))
    if first != S1:
        raise NotInImage(f"walk from {edge_point(L, k)} cannot start with step {first}")
    reflected, exits = _chain(L, k)
    walk = _to_forward(reflect(tail)) if reflected else tail
    for letter, level in exits:
        image = omega(L, level, walk, stats)
        if image.is_meander:
            return OmegaImage(meander=MotzkinWord(letter + image.meander.steps, k))
        walk = image.path
    return OmegaImage(path=_to_forward((SB1,) + walk))


def omega_inverse(L, k, image, stats=None):
    """Walk the arrows of ``omega`` backwards; exact inverse on its image.

    The meander's start and amplitude, or the walk, are checked here once:
    every image that ``_inverse`` hands down is a suffix of that meander or
    a walk of the triangle that it built."""
    H = L // 2
    if not 0 <= k <= H:
        raise HeightOutOfRange(f"k={k} not in 0..{H} for L={L}")
    if image.is_meander:
        word = image.meander
        if word.start_height != k:
            raise NotInImage(f"meander starts at {word.start_height}, expected {k}")
        if not fits_amplitude(word, L):
            raise NotInImage(f"amplitude exceeds {L}")
    elif k:
        validate_path(L, 2, edge_point(L, k - 1), tuple(image.path))
    return _inverse(L, k, image, stats)


def _inverse(L, k, image, stats):
    """``omega_inverse`` of an image whose start, amplitude or walk is known good."""
    if stats is not None:
        stats["calls"] = stats.get("calls", 0) + 1
    reflected, exits = _chain(L, k)
    if image.is_meander:
        word = image.meander
        if not word.steps:
            if k != 0:
                raise NotInImage("empty meander only arises at k = 0")
            return ()
        head = word.steps[0]
        # the chain left at the pair of the head letter
        for out, (letter, _) in enumerate(exits):
            if letter == head:
                break
        else:
            raise NotInImage(f"no meander from level {k} starts with {head} when L={L}")
        image = OmegaImage(meander=MotzkinWord(word.steps[1:], k + _HEIGHT_MOVE[head]))
    else:
        if k == 0:
            raise NotInImage("no walk images exist at k = 0")
        path = tuple(image.path)
        n = len(path)
        if n == 0:
            return ()
        u = transform(path, "B" + "F" * (n - 1))
        head, tail = u[0], tuple(u[1:])
        if head == SB3:
            return (S2,) + tail
        if head != SB1:
            raise NotInImage(f"transport preimage starts with {head}")
        # the chain left past its end
        out = len(exits)
        image = OmegaImage(path=tail)
    for _, level in reversed(exits[:out + 1]):
        image = OmegaImage(path=_inverse(L, level, image, stats))
    walk = image.path
    if reflected:
        walk = reflect(transform(walk, "B" * len(walk)))
    return (S1,) + tuple(walk)


def _too_long(n):
    return TooLong(f"omega recurses once per letter; {n} letters exceed "
                   f"the recursion limit ({sys.getrecursionlimit()})")


def forward_to_motzkin_exp(L, steps, stats=None):
    """The k = 0 case: forward walks from the origin to bounded Motzkin paths.
    The walk is checked here, as a scaffolding's inverse checks it."""
    steps = tuple(steps)
    check_forward(origin(L), steps, OutOfLattice)
    try:
        img = omega(L, 0, steps, stats)
    except RecursionError:
        raise _too_long(len(steps)) from None
    if not img.is_meander:
        raise NotInImage("a forward walk from the origin always maps to a meander")
    return img.meander


def motzkin_to_forward_exp(L, word, stats=None):
    if isinstance(word, str):
        word = MotzkinWord(word)
    try:
        return omega_inverse(L, 0, OmegaImage(meander=word), stats)
    except RecursionError:
        raise _too_long(len(word)) from None
