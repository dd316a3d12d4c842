"""Dimension three: pyramid walks, waffle walks, and the bridge between them.

The pyramid of side L is the set of (x1, x2, x3, x4) >= 0 summing to L,
walked with the four forward steps s_j = e_j - e_{j-1} (cyclic) and their
reversals. The waffle is the plane domain

    W_L = {(i, j) : 0 <= j <= i <= L - j},

walked with unit N/E/S/W steps. A waffle walk here always ends on the axis
j = 0 (where length-0 walks on the axis count as already arrived).

Every pyramid point z carries the cell grid C(z) = {(p, q) : p <= min(x2, x4),
q <= min(x1, x3)} and the anchor map h_z(p, q) = (x1 + x3 + p - q, p + q),
an injection into W_L. A scaffolding maps (cell, cardinal step) pairs to
(forward pyramid step, cell) pairs so that anchors track the walk exactly;
running it turns a waffle walk into a pyramid walk of the same length.

The explicit scaffolding used here is a closed form on a 2x2 block of
cells. With t the target anchor and c = x1 + x3, put
p0 = (t_i - c + t_j - 1)/2 and q0 = (t_j - t_i + c - 1)/2. The inputs
aimed at t are the steps N, E, S, W from the cells (p0, q0), (p0, q0+1),
(p0+1, q0+1), (p0+1, q0), kept when inside C(z). The outputs at t are
(p0, q0+1) in z + s_1 and in z + s_3 and (p0+1, q0) in z + s_2 and in
z + s_4, kept when that cell is in the neighbour's grid (a neighbour
outside the pyramid has none). There are as many kept inputs as kept
outputs; the input of rank r in the order N, E, S, W goes to the output of
rank r in the order s_1 < s_2 < s_3 < s_4, and the inverse reads the same
block back. A letter costs a few bound comparisons. The pointwise
certificate in ``validate_scaffolding3d`` is the correctness argument.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import lattice
from .errors import InvalidWalk, NotAllowed, OutsideWaffle, PrecisionLoss
from .profiles import certify

CARDINAL = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
CARDINAL_ORDER = ("N", "E", "S", "W")


def in_waffle(pt, L):
    i, j = pt
    return 0 <= j <= i <= L - j


def _check_waffle_point(pt, L):
    if len(pt) != 2 or not in_waffle(pt, L):
        raise OutsideWaffle(f"{pt} is not a waffle point (i, j) with 0 <= j <= i <= {L} - j")


def waffle_points(L):
    return list(_waffle_graph(L)[0])


def pyramid_points(L):
    return lattice.all_points(L, 3)


def count_pyramid_paths(L, n, start, orientation="F"):
    """Forward (or backward) walks of length n from ``start``; exact DP."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return lattice.count_paths(L, 3, start, orientation * n)


def forward_count(L, z, n):
    """Length-n forward walks from ``z``: p_n(z) = sum over c in C(z) of W_n(h_z(c)).

    This counting form of the 3d scaffolding, a bijection from (cell,
    axis-ending waffle walk) pairs onto forward walks, holds from every start
    and, by direction-vector independence, for any direction vector of length
    n. The anchors, in the coordinates of ``_walker_pairs``, are every v in
    |x1 - x3| .. x1 + x3 (step 2) with every u in x1 + x3 .. L - |x2 - x4|
    (step 2): one call sums them, one call of ``lattice.tridiagonal_power``.
    ``count_pyramid_paths`` is its oracle.
    """
    z = lattice.check_start(L, 3, z)  # by bounds: no pyramid graph is built
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    x1, x2, x3, x4 = z
    return _walker_pairs(L, n, range(abs(x1 - x3), x1 + x3 + 1, 2),
                         range(x1 + x3, L - abs(x2 - x4) + 1, 2), [(e, e) for e in range(L + 1)])


def paired_start_point(L, i, j):
    """The pyramid point paired with waffle position (i, j)."""
    return (i - j, j, 0, L - i)


@functools.lru_cache(maxsize=4)
def _waffle_graph(L):
    """Waffle point index and the in-waffle neighbour gathers (N, E, S, W)."""
    pts = [(i, j) for i in range(L + 1) for j in range(L // 2 + 1) if in_waffle((i, j), L)]
    return lattice.neighbour_rows(pts, CARDINAL.values())


def _check_walk(L, n, start):
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    _check_waffle_point(start, L)


def _walker_pairs(L, n, lower, upper, ends):
    """Waffle walks of length n from each (v, u) in ``lower`` x ``upper`` to
    each (v, u) in ``ends``, where v = i - j and u = i + j: 0 <= v <= u <= L.

    A step moves v and u by +-1 each, so v and u + 2 are walkers of one parity
    on 0..L+2 that never meet (Grabiner 2002). By Lindstrom-Gessel-Viennot they
    number P(v0, v1) P(u0+2, u1+2) - P(v0, u1+2) P(u0+2, v1), P counting +-1
    walks on 0..L+2; bilinear in the starts, that is T^n of two start vectors
    for the walker's matrix T, one call of ``lattice.tridiagonal_power``: O(n)
    packed steps for short walks, O(L^2 log n) operations on n-bit numbers
    for long ones."""
    low = [int(x in lower) for x in range(L + 3)]
    up = [int(x - 2 in upper) for x in range(L + 3)]
    low, up = lattice.tridiagonal_power([0] * (L + 3), n, [low, up])
    return sum(low[v] * up[u + 2] - low[u + 2] * up[v] for v, u in ends)


def count_waffle_walks(L, n, start):
    """Walks of length n in the waffle from ``start`` to the axis (``_walker_pairs``)."""
    _check_walk(L, n, start)
    i, j = start
    return _walker_pairs(L, n, [i - j], [i + j], [(e, e) for e in range(L + 1)])


def count_waffle_walks_to(L, n, start, end=(0, 0)):
    """Walks of length n inside the waffle from ``start`` to the waffle point ``end``."""
    _check_walk(L, n, start)
    _check_waffle_point(end, L)
    (i, j), (a, b) = start, end
    return _walker_pairs(L, n, [i - j], [i + j], [(a - b, a + b)])


def signed_waffle_array(L, n_max):
    """The signed array extending the walk counts to 0 <= j <= i <= L + 1.

    Defined by w[0][i][0] = 1 for i <= L, w[0][L+1][j] = -1 for j >= 1,
    zero elsewhere, and the four-neighbour recurrence

        w[n+1][i][j] = w[n][i+1][j] + w[n][i][j-1] + w[n][i][j+1] + w[n][i-1][j]

    with w = 0 outside the index triangle. It agrees with the confined walk
    counts where i + j <= L and obeys w[n][i][j] = -w[n][L+1-j][L+1-i].
    """
    idx = [(i, j) for i in range(L + 2) for j in range(i + 1)]
    _, gathers = lattice.neighbour_rows(idx, CARDINAL.values())
    w = [int(i <= L) if j == 0 else -int(i == L + 1) for i, j in idx]
    out = [dict(zip(idx, w))]
    for _ in range(n_max):
        w = lattice.sweep(w, gathers)
        out.append(dict(zip(idx, w)))
    return out


# -- cells, anchors and the explicit scaffolding ------------------------------

def profile3d(z):
    x1, x2, x3, x4 = z
    return [
        (p, q)
        for p in range(min(x2, x4) + 1)
        for q in range(min(x1, x3) + 1)
    ]


def _has_cell(z, cell):
    """Whether ``cell`` is in ``profile3d(z)``, by its bounds."""
    x1, x2, x3, x4 = z
    if len(cell) != 2:
        return False
    p, q = cell
    return 0 <= p <= min(x2, x4) and 0 <= q <= min(x1, x3)


def anchor(z, cell):
    x1, x2, x3, x4 = z
    p, q = cell
    return (x1 + x3 + p - q, p + q)


def anchored_region(z):
    return [anchor(z, c) for c in profile3d(z)]


def allowed_cardinal(z, cell, L):
    return tuple(
        s
        for s in CARDINAL_ORDER
        if in_waffle(tuple(a + b for a, b in zip(anchor(z, cell), CARDINAL[s])), L)
    )


# each input step: its index in the order N, E, S, W and the offset (dp, dq)
# of its cell from the block's corner (p0, q0)
_INPUT_CELL = {"N": (0, 0, 0), "E": (1, 0, 1), "S": (2, 1, 1), "W": (3, 1, 0)}


def _block(z, p0, q0):
    """Kept inputs (N, E, S, W) and outputs (s_1 .. s_4) of the block at (p0, q0).

    Each is a flag: an input is kept when its cell is in C(z), an output when
    its cell is in C(z + s_j), whose bounds are those of C(z) with the two
    coordinates that s_j changes moved by one; written without ``min``.
    """
    x1, x2, x3, x4 = z
    p1, q1 = p0 + 1, q0 + 1
    a0 = 0 <= p0 <= x2 and p0 <= x4
    a1 = 0 <= p1 <= x2 and p1 <= x4
    b0 = 0 <= q0 <= x1 and q0 <= x3
    b1 = 0 <= q1 <= x1 and q1 <= x3
    ins = (a0 and b0, a0 and b1, a1 and b1, a1 and b0)
    outs = (
        0 <= p0 <= x2 and p0 < x4 and 0 <= q1 <= x3 and q0 <= x1,
        0 <= p1 <= x4 and p0 <= x2 and 0 <= q0 < x1 and q0 <= x3,
        0 <= p0 < x2 and p0 <= x4 and 0 <= q1 <= x1 and q0 <= x3,
        0 <= p1 <= x2 and p0 <= x4 and 0 <= q0 <= x1 and q0 < x3,
    )
    return ins, outs


# every pair of four-flag tuples with as many kept entries, keyed by their
# concatenation, to the map from each kept index of the first to the kept
# index of the same rank in the second
_SAME_RANK = {
    key: dict(zip(itertools.compress(range(4), key[:4]), itertools.compress(range(4), key[4:])))
    for key in itertools.product((False, True), repeat=8)
    if sum(key[:4]) == sum(key[4:])
}


def _same_rank(z, src, dst):
    """The rank pairing of ``src`` onto ``dst``; only asked for a target anchor
    inside the waffle, where both sides keep the same number of cells."""
    pairing = _SAME_RANK.get(src + dst)
    if pairing is None:
        raise AssertionError(f"anchor class mismatch at z={z}: {src} against {dst}")
    return pairing


def diamond_delta(z, cell, step):
    """One scaffolding lookup: (cell, cardinal step) to (pyramid step, cell).

    The step places ``cell`` in the 2x2 block aimed at its target anchor;
    its rank among the block's kept inputs picks the kept output of the
    same rank: (p0, q0+1) after s_1 or s_3, (p0+1, q0) after s_2 or s_4.
    """
    if not _has_cell(z, cell):
        raise NotAllowed(f"cell {cell} not in C({z})")
    return _lookup(z, cell, step)


def _lookup(z, cell, step):
    """``diamond_delta`` for a cell known to be in C(z)."""
    p, q = cell
    try:
        di, dj = CARDINAL[step]
    except (KeyError, TypeError):
        raise NotAllowed(f"bad letter {step!r}") from None
    if not in_waffle((z[0] + z[2] + p - q + di, p + q + dj), sum(z)):
        raise NotAllowed(f"step {step} leaves the waffle from {anchor(z, cell)}")
    k, dp, dq = _INPUT_CELL[step]
    p0, q0 = p - dp, q - dq
    ins, outs = _block(z, p0, q0)
    j = _same_rank(z, ins, outs)[k] + 1
    return j, ((p0, q0 + 1) if j % 2 else (p0 + 1, q0))


def diamond_delta_inv(z, j, cell):
    """Preimage (cell, cardinal step) of a tagged output cell.

    ``cell`` in C(z + s_j) fixes the block: it is (p0, q0+1) for odd j and
    (p0+1, q0) for even j. The output's rank among the kept outputs picks
    the kept input of the same rank.
    """
    if j not in (1, 2, 3, 4):
        raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")
    p, q = cell
    p0, q0 = (p, q - 1) if j % 2 else (p - 1, q)
    ins, outs = _block(z, p0, q0)
    if not outs[j - 1]:
        raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")
    s = CARDINAL_ORDER[_same_rank(z, outs, ins)[j - 1]]
    _, dp, dq = _INPUT_CELL[s]
    return (p0 + dp, q0 + dq), s


def validate_scaffolding3d(L):
    """Pointwise certificate by ``profiles.certify``: domain, bijectivity onto
    the ``profile3d`` cells of the neighbours, the inverse and the anchors."""
    return certify(f"3d scaffolding valid, L={L}", L, 3, profile3d,
                   lambda z, cell: allowed_cardinal(z, cell, L), diamond_delta,
                   diamond_delta_inv, _tracks_anchor)


def _tracks_anchor(z, cell, s, j, cell2):
    """Whether the anchor moves by the step s from (z, cell) to (z + s_j, cell2)."""
    (a, b), (di, dj) = anchor(z, cell), CARDINAL[s]
    return anchor(lattice.move(z, j), cell2) == (a + di, b + dj)


def waffle_to_pyramid(z_c, start_cell, walk):
    """Run the scaffolding along a waffle walk; one pyramid step per letter.

    ``walk`` is a string over NESW starting at the anchor of ``start_cell``
    and ending on the axis j = 0. For a fixed starting point the map
    (cell, walk) -> pyramid walk is a bijection onto the forward walks of
    that length; a walk ending off the axis is outside its domain.
    """
    z, cell = _pyramid_point(z_c), tuple(start_cell)
    if not _has_cell(z, cell):
        raise InvalidWalk(f"cell {cell} not in C({z})")
    try:
        steps, z, cell = lattice.run(z, cell, walk, _lookup)  # each cell in C(z + s_j)
    except NotAllowed as exc:
        raise InvalidWalk(str(exc)) from None
    if sum(cell):  # the anchor's height j is p + q
        raise InvalidWalk(f"walk ends at {anchor(z, cell)}, off the axis j = 0")
    return steps


def pyramid_to_waffle(z_c, steps):
    """Inverse of ``waffle_to_pyramid``: recover (start cell, walk).

    ``lattice.unrun`` from the cell (0, 0) of the axis at the far end.
    """
    return lattice.unrun(_pyramid_point(z_c), steps, (0, 0), diamond_delta_inv, InvalidWalk)


def _pyramid_point(z_c):
    """``z_c`` as a tuple, or InvalidWalk unless it has four coordinates >= 0."""
    z = tuple(z_c)
    if len(z) != 4 or min(z) < 0:
        raise InvalidWalk(f"start {z} is not a pyramid point")
    return z


# -- enumeration oracles ------------------------------------------------------

def enumerate_pyramid_paths(L, start, n, orientation="F"):
    """All forward (or backward) walks of length n from ``start``."""
    return lattice.enumerate_paths(L, 3, start, orientation * n)


def enumerate_waffle_walks(L, start, n):
    """All length-n waffle walks from ``start`` ending on the axis, as NESW
    words in lexicographic N < E < S < W.

    Moves are checked with ``in_waffle``: an oracle independent of the counts.
    """
    _check_walk(L, n, start)

    def neighbours(_, pt):
        steps = ((s, (pt[0] + dx, pt[1] + dy)) for s, (dx, dy) in CARDINAL.items())
        return [(s, q) for s, q in steps if in_waffle(q, L)]

    return ["".join(w) for w in lattice.walks(tuple(start), n, neighbours, lambda pt: pt[1] == 0)]


# -- closed-form generating function and the reflection principle -------------

# bits kept below the working precision inside _pi and _two_cos, so that
# their own rounding errors never reach the bits they return
_GUARD = 64


def _pi(bits):
    """pi * 2**bits, to within one unit, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integer fixed point."""
    p = bits + _GUARD

    def atan_inv(x):  # atan(1/x) * 2**p, by its alternating series
        total, term, k = 0, (1 << p) // x, 1
        while term:
            total += term // k if k % 4 == 1 else -(term // k)
            term //= x * x
            k += 2
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> _GUARD


def _two_cos(rs, M, bits):
    """2 cos(r pi / M) * 2**bits for each r in ``rs`` (0 <= r <= M), to within
    a unit, by the Taylor series at an angle folded into [0, pi/2]."""
    p = bits + _GUARD
    pi = _pi(p)
    out = []
    for r in rs:
        sign, r = (-1, M - r) if 2 * r > M else (1, r)
        x2 = (r * pi // M) ** 2 >> p
        total = term = 1 << p
        k = 0
        while term:
            k += 2
            term = -(term * x2 >> p) // (k * (k - 1))
            total += term
        out.append(sign * (total >> (_GUARD - 1)))
    return out


def pyramid_gf_coefficients(L, N, tolerance=1e-6, dps=None):
    """Taylor coefficients of the corner-walk generating function.

    The closed form is a finite sum of geometric terms: with M = L + 4 and
    c_r = 2 cos(r pi / M),

        P(t) = 1/M^2 * sum over odd 1 <= j < k <= L + 3 of
               (c_k - c_j)^2 (2 + c_j) (2 + c_k) / (1 - (c_j + c_k) t),

    so the n-th coefficient is the same sum with (c_j + c_k)^n in place of
    the geometric factor.

    It is evaluated in integer fixed point: a real x is held as the int
    x * 2**prec, rounded down, with prec = ceil(dps log2 10) bits, so
    ``dps`` is the working precision in decimal digits. pi comes from
    Machin's formula and each c_r from its Taylor series. The terms are
    grouped by lam = |c_j + c_k|; a group adds up to lam^n (w+ + w-) at even
    n and lam^n (w+ - w-) at odd n, with w+ and w- its weights at +lam and
    -lam. Each of the two is advanced by one multiply by lam^2 and one shift
    per two n. For even L, c_{M-r} = -c_r gives every c_j + c_k its
    negative, which halves the multiplies; for odd L each group is one term.
    Every coefficient must round to an integer within ``tolerance``,
    compared exactly, or PrecisionLoss is raised. Since |c_j + c_k| < 4, the
    terms stay below 4^N times a constant, so the default precision is
    N log10(4) digits plus 20 guard digits.
    """
    if N < 0 or L < 0:
        raise ValueError(f"need N, L >= 0, got N={N}, L={L}")
    if dps is None:
        dps = math.ceil(N * math.log10(4)) + 20
    prec = math.ceil(dps * math.log2(10))
    M = L + 4
    odd = range(1, L + 4, 2)
    c = dict(zip(odd, _two_cos(odd, M, prec)))
    two = 2 << prec
    weights = {}  # lam -> [w+, w-]
    for j in odd:
        for k in range(j + 2, L + 4, 2):
            d, lam = c[k] - c[j], c[j] + c[k]
            weights.setdefault(abs(lam), [0, 0])[lam < 0] += (
                d * d * (two + c[j]) * (two + c[k]) >> 3 * prec)
    squares = [lam * lam >> prec for lam in weights]
    # the group sums at the next even n and the next odd n
    chains = [[p + m for p, m in weights.values()],
              [(p - m) * lam >> prec for lam, (p, m) in weights.items()]]
    den = M * M << prec  # a coefficient is sum(chain) / den
    half = den >> 1
    tol_num, tol_den = Fraction(tolerance).as_integer_ratio()
    limit = tol_num * den  # off / den >= tolerance, in integers
    coeffs = []
    for n in range(N + 1):
        chain = chains[n % 2]
        r, rem = divmod(sum(chain) + half, den)  # the nearest integer
        off = abs(rem - half)
        if off * tol_den >= limit:
            # int / int rounds once and never overflows, as float(den) would
            raise PrecisionLoss(f"coefficient {n} off by {off / den:.3g}")
        coeffs.append(r)
        if n + 2 <= N:
            chains[n % 2] = [x * q >> prec for x, q in zip(chain, squares)]
    return coeffs


def free_walk_count(n, dx, dy):
    """N/E/S/W walks of length n with total displacement (dx, dy).

    Rotating to u = x + y, v = x - y splits the walk into two independent
    one-dimensional ones, each counted by a binomial coefficient.
    """
    u, v = dx + dy, dx - dy
    if abs(u) > n or abs(v) > n or (n + u) % 2 or (n + v) % 2:
        return 0
    return math.comb(n, (n + u) // 2) * math.comb(n, (n + v) // 2)


# endpoint orbit data: positive and negative translate offsets of the lattice
_POS_SHIFTS = ((0, 0), (1, 3), (4, 2), (3, -1))
_NEG_SHIFTS = ((1, -1), (0, 2), (3, 3), (4, 0))


def _free_walks_to_lattice(L, n, sx, sy):
    """Free walks from (sx, sy) into the doubled lattice of period 2L + 8."""
    M = 2 * L + 8
    total = 0
    for base in (0, L + 4):
        kx_lo = -((abs(sx) + n) // M + 1)
        kx_hi = (abs(sx) + n) // M + 1
        ky_lo = -((abs(sy) + n) // M + 1)
        ky_hi = (abs(sy) + n) // M + 1
        for kx in range(kx_lo, kx_hi + 1):
            for ky in range(ky_lo, ky_hi + 1):
                tx, ty = base + kx * M, base + ky * M
                if abs(tx - sx) + abs(ty - sy) <= n:
                    total += free_walk_count(n, tx - sx, ty - sy)
    return total


def reflection_count(L, n, start):
    """Confined walks from ``start`` to (0, 0), by signed free-walk counting.

    The waffle is a reflection-group chamber; unfolding the walls turns the
    confined count into free walks from eight shifted copies of the start,
    four counted positively and four negatively, into a doubled square
    lattice of period 2L + 8.
    """
    _check_waffle_point(start, L)
    x, y = start
    pos = sum(_free_walks_to_lattice(L, n, x + dx, y + dy) for dx, dy in _POS_SHIFTS)
    neg = sum(_free_walks_to_lattice(L, n, x + dx, y + dy) for dx, dy in _NEG_SHIFTS)
    return pos - neg


def corner_count_by_reflection(L, n):
    """p_n at the corner, assembled from reflection counts along the axis.

    Axis-ending walks from (0, 0) are reversed walks from axis points to
    (0, 0), so the corner count is the sum of reflection counts over all
    axis starting points.
    """
    return sum(reflection_count(L, n, (i, 0)) for i in range(L + 1))
