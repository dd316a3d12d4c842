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
result to the all-forward direction vector. A walk beginning with s_1 has
its tail recursed at level k + 1, and the chain of outcomes is re-recursed
at levels k, k - 1 until a meander appears; the three exits prefix the
meander with an up, flat or down step, and the fourth exit prefixes -s_1
and transports, landing in G_n(k - 1). At k = H the level k + 1 does not
exist; instead the tail is reflected through the triangle's vertical
midline (swap the outer coordinates, relabel steps s_1, s_2, s_3 to
-s_1, -s_3, -s_2), transported forward, and the chain continues on the
side the parity of L dictates. Every arrow is reversible, which is what
``omega_inverse`` walks backwards.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import HeightOutOfRange, NotInImage, TooLong
from .flips import transform
from .motzkin import _HEIGHT_MOVE, MotzkinWord, fits_amplitude
from .lattice import validate_path

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
    if k < H:
        x = omega(L, k + 1, tail, stats)
        if x.is_meander:
            return OmegaImage(meander=MotzkinWord("U" + x.meander.steps, k))
        y = omega(L, k, x.path, stats)
        if y.is_meander:
            return OmegaImage(meander=MotzkinWord("F" + y.meander.steps, k))
        z = omega(L, k - 1, y.path, stats)
        if z.is_meander:
            return OmegaImage(meander=MotzkinWord("D" + z.meander.steps, k))
        return OmegaImage(path=_to_forward((SB1,) + z.path))
    # k == H: reflect the tail instead of recursing at the missing level H + 1
    rho = _to_forward(reflect(tail))
    if L % 2 == 1:
        y = omega(L, H, rho, stats)
        if y.is_meander:
            return OmegaImage(meander=MotzkinWord("F" + y.meander.steps, H))
        z = omega(L, H - 1, y.path, stats)
    else:
        z = omega(L, H - 1, rho, stats)
    if z.is_meander:
        return OmegaImage(meander=MotzkinWord("D" + z.meander.steps, H))
    return OmegaImage(path=_to_forward((SB1,) + z.path))


def omega_inverse(L, k, image, stats=None):
    """Walk the arrows of ``omega`` backwards; exact inverse on its image."""
    H = L // 2
    if not 0 <= k <= H:
        raise HeightOutOfRange(f"k={k} not in 0..{H} for L={L}")
    if stats is not None:
        stats["calls"] = stats.get("calls", 0) + 1
    if image.is_meander:
        word = image.meander
        if word.start_height != k:
            raise NotInImage(f"meander starts at {word.start_height}, expected {k}")
        if not fits_amplitude(word, L):
            raise NotInImage(f"amplitude exceeds {L}")
        n = len(word)
        if n == 0:
            if k != 0:
                raise NotInImage("empty meander only arises at k = 0")
            return ()
        head, rest = word.steps[0], MotzkinWord(word.steps[1:], k + _HEIGHT_MOVE[word.steps[0]])
        if k < H:
            if head == "U":
                tail = omega_inverse(L, k + 1, OmegaImage(meander=rest), stats)
            elif head == "F":
                x = omega_inverse(L, k, OmegaImage(meander=rest), stats)
                tail = omega_inverse(L, k + 1, OmegaImage(path=x), stats)
            else:
                y = omega_inverse(L, k - 1, OmegaImage(meander=rest), stats)
                x = omega_inverse(L, k, OmegaImage(path=y), stats)
                tail = omega_inverse(L, k + 1, OmegaImage(path=x), stats)
            return (S1,) + tuple(tail)
        # k == H
        if head == "F":
            if L % 2 == 0:
                raise NotInImage("no flat start at the top height when L is even")
            rho = omega_inverse(L, H, OmegaImage(meander=rest), stats)
        elif head == "D":
            z = omega_inverse(L, H - 1, OmegaImage(meander=rest), stats)
            if L % 2 == 1:
                rho = omega_inverse(L, H, OmegaImage(path=z), stats)
            else:
                rho = z
        else:
            raise NotInImage("no up step can start at the top height")
        tail = reflect(transform(rho, "B" * len(rho)))
        return (S1,) + tuple(tail)
    # image in G_n(k - 1)
    if k == 0:
        raise NotInImage("no walk images exist at k = 0")
    path = tuple(image.path)
    n = len(path)
    if n == 0:
        return ()
    validate_path(L, 2, edge_point(L, k - 1), path)
    u = transform(path, "B" + "F" * (n - 1))
    head, tail = u[0], tuple(u[1:])
    if head == SB3:
        return (S2,) + tail
    if head != SB1:
        raise NotInImage(f"transport preimage starts with {head}")
    if k < H:
        y = omega_inverse(L, k - 1, OmegaImage(path=tail), stats)
        x = omega_inverse(L, k, OmegaImage(path=y), stats)
        front = omega_inverse(L, k + 1, OmegaImage(path=x), stats)
        return (S1,) + tuple(front)
    z = omega_inverse(L, H - 1, OmegaImage(path=tail), stats)
    if L % 2 == 1:
        rho = omega_inverse(L, H, OmegaImage(path=z), stats)
    else:
        rho = z
    return (S1,) + tuple(reflect(transform(rho, "B" * len(rho))))


def _too_long(n):
    return TooLong(f"omega recurses once per letter; {n} letters exceed "
                   f"the recursion limit ({sys.getrecursionlimit()})")


def forward_to_motzkin_exp(L, steps, stats=None):
    """The k = 0 case: forward walks from the origin to bounded Motzkin paths."""
    steps = tuple(steps)
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
