"""Motzkin paths and meanders with the amplitude statistic.

A word over U (up), F (flat), D (down) is a meander when every prefix stays
at height >= 0 and the final height is 0; a Motzkin path additionally starts
at height 0. The amplitude of a path with maximum height H is 2H + 1 when
some flat step occurs at height H, else 2H.

Bounding the amplitude by L means: heights never exceed floor(L/2), and when
L is even no flat step happens at the top height. Bicolored words carry one
color per step, written as case: uppercase for black, lowercase for white.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import lattice
from .errors import CapExceeded, EmptySet, HeightOutOfRange, NotAPath

UP, FLAT, DOWN = "U", "F", "D"
_HEIGHT_MOVE = {UP: 1, FLAT: 0, DOWN: -1}


@dataclass(frozen=True)
class MotzkinWord:
    """A meander: steps (uppercase), start height, optional per-step colors."""

    steps: str
    start_height: int = 0
    colors: str | None = None  # 'b'/'w' per step

    def __post_init__(self):
        if set(self.steps) - set("UFD"):
            raise NotAPath(f"bad letters in {self.steps!r}")
        if self.colors is not None and (
            len(self.colors) != len(self.steps) or set(self.colors) - set("bw")
        ):
            raise NotAPath(f"bad colors {self.colors!r}")
        if self.start_height < 0:
            raise NotAPath("negative start height")
        h = self.start_height
        for ch in self.steps:
            h += _HEIGHT_MOVE[ch]
            if h < 0:
                raise NotAPath(f"{self.steps!r} dips below height 0")
        if h != 0:
            raise NotAPath(f"{self.steps!r} ends at height {h}, not 0")

    def __len__(self):
        return len(self.steps)

    def heights(self):
        """Heights after 0, 1, ..., n steps."""
        hs = [self.start_height]
        for ch in self.steps:
            hs.append(hs[-1] + _HEIGHT_MOVE[ch])
        return hs

    @property
    def is_path(self):
        return self.start_height == 0

    def to_word(self):
        """Serialized form: lowercase marks white steps."""
        if self.colors is None:
            return self.steps
        return "".join(
            ch.lower() if col == "w" else ch for ch, col in zip(self.steps, self.colors)
        )

    @classmethod
    def from_word(cls, word, start_height=0):
        """Parse a possibly mixed-case word; case encodes the coloring."""
        steps = word.upper()
        colors = None
        if word != steps:
            colors = "".join("w" if ch.islower() else "b" for ch in word)
        return cls(steps, start_height, colors)

    def direction_vector(self):
        """Black steps read F, white steps read B (all black when uncolored)."""
        if self.colors is None:
            return "F" * len(self.steps)
        return "".join("F" if c == "b" else "B" for c in self.colors)


def amplitude(word):
    """2H+1 if a flat step occurs at the maximum height H, else 2H."""
    if isinstance(word, str):
        word = MotzkinWord(word)
    if not word.is_path:
        raise NotAPath("amplitude is defined for words starting at height 0")
    hs = word.heights()
    top = max(hs)
    flat_at_top = any(
        ch == FLAT and h == top for ch, h in zip(word.steps, hs[:-1])
    )
    return 2 * top + 1 if flat_at_top else 2 * top


def allowed_steps(height, L):
    """Steps usable at ``height`` by a meander of amplitude at most L."""
    H = L // 2
    out = []
    if height < H:
        out.append(UP)
    if height < H or L % 2 == 1:
        out.append(FLAT)
    if height > 0:
        out.append(DOWN)
    return tuple(out)


def fits_amplitude(word, L):
    """Whether a meander respects the amplitude-L height constraints."""
    H = L // 2
    hs = word.heights()
    if max(hs) > H:
        return False
    if L % 2 == 0 and any(
        ch == FLAT and h == H for ch, h in zip(word.steps, hs[:-1])
    ):
        return False
    return True


def _strip(L):
    """The diagonal of the transfer matrix T on heights 0..H, H = floor(L/2):
    from height i a meander steps to i + 1 (i < H), to i - 1 (i > 0), and
    flat at every height but the top of an even L."""
    return [1] * (L // 2) + [L % 2]


def _check_sizes(n, L):
    if n < 0 or L < 0:
        raise ValueError(f"need n, L >= 0, got n={n}, L={L}")


def _meander_rows(L, n):
    """Rows 0..n of the meander table, one at a time, by one step of T per
    row (the first-step recurrence): for the readers of every row,
    ``meander_count_table`` and ``uniform_sample``. ``meander_row`` reads the
    last row alone from ``lattice.tridiagonal_power``."""
    _check_sizes(n, L)
    diag = _strip(L)
    row = [1] + [0] * (L // 2)
    yield row
    for _ in range(n):
        row = lattice._tridiagonal_step(diag, row)
        yield row


def meander_count_table(L, n):
    """table[m][i] = number of meanders of length m from height i, amplitude <= L.

    Built from the first-step recurrence; row m is derived from row m - 1.
    """
    return list(_meander_rows(L, n))


def meander_row(L, n):
    """row[i] = number of meanders of length n from height i, amplitude <= L.

    The last row of ``meander_count_table``: T^n e_0 for the transfer matrix
    T of the strip of heights 0..H, whose diagonal is 1 but at the top of an
    even L. ``lattice.tridiagonal_power`` computes it, by O(n) packed steps
    for short walks and O(H^2 log n) operations on n-bit numbers for long ones.
    """
    _check_sizes(n, L)
    return lattice.tridiagonal_power(_strip(L), n, [[1] + [0] * (L // 2)])[0]


def count_meanders(L, n, i):
    """Number of length-n meanders from height i with amplitude <= L.

    A bad n or L is reported before a bad height."""
    _check_sizes(n, L)
    H = L // 2
    if not 0 <= i <= H:
        raise HeightOutOfRange(f"start height {i} not in 0..{H} for L={L}")
    return meander_row(L, n)[i]


def count_paths_by_amplitude(n, L):
    """Motzkin paths of length n with amplitude at most L."""
    return meander_row(L, n)[0]


def enumerate_meanders(n, L, i=0, cap=lattice.DEFAULT_CAP):
    """All meanders, lexicographic with U < F < D (enumeration oracle)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    H = L // 2
    if not 0 <= i <= H:
        raise HeightOutOfRange(f"start height {i} not in 0..{H} for L={L}")

    def neighbours(_, h):
        return [(ch, h + _HEIGHT_MOVE[ch]) for ch in allowed_steps(h, L)]

    try:
        found = lattice.walks(i, n, neighbours, lambda h: h == 0, cap)
    except CapExceeded:
        raise CapExceeded(f"more than {cap} meanders") from None
    return [MotzkinWord("".join(w), i) for w in found]


@functools.lru_cache(maxsize=1024)
def _steps_from(h, L):
    """The (letter, next height) pairs of ``allowed_steps(h, L)``."""
    return tuple((ch, h + _HEIGHT_MOVE[ch]) for ch in allowed_steps(h, L))


def uniform_sample(n, L, seed=None, rng=None, start_height=0):
    """Draw one meander uniformly at random, by suffix-count weighting.

    Exact: at every position the next letter is chosen with probability
    proportional to the number of completions, counted in big integers, so
    no rejection is ever needed.

    The counts are the rows of ``meander_count_table``, read from row n - 1
    down to row 0, but the table is never held. The way up keeps the height-0
    entry of every row and the last row. The way down rebuilds each row from
    the row above and its height-0 entry, by the first-step recurrence solved
    for the entry one higher: below H a meander may always step up or flat, so
    row[i] = below[i + 1] + below[i] + below[i - 1] there, whatever L's parity.
    Only the entries up to one above the current height are rebuilt, since
    the height moves by one per letter. So the sampler takes O(n L) big-int
    additions, as the table does, and holds n + H + 2 counts: at n = 6000,
    L = 40 that is about 4 MB, against 80 MB for the table.
    """
    H = L // 2
    if not 0 <= start_height <= H:
        raise HeightOutOfRange(f"start height {start_height} not in 0..{H} for L={L}")
    if rng is None:
        rng = random.Random(seed)
    heads = []
    for row in _meander_rows(L, n):
        heads.append(row[0])
    if row[start_height] == 0:
        raise EmptySet(f"no meanders of length {n} from height {start_height}, L={L}")
    h = start_height
    letters = []
    for m in range(n - 1, -1, -1):
        below = [heads[m]]  # row m, rebuilt up to height h + 1
        lower = 0
        for i in range(min(h + 1, H)):
            below.append(row[i] - below[i] - lower)
            lower = below[i]
        # the completions from h, split by their first letter
        pick = rng.randrange(row[h])
        for ch, h2 in _steps_from(h, L):
            w = below[h2]
            if pick < w:
                letters.append(ch)
                h = h2
                break
            pick -= w
        row = below
    return MotzkinWord("".join(letters), start_height)
