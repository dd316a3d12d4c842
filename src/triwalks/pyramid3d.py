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

The explicit scaffolding used here matches, anchor by anchor: the inputs
aimed at a target anchor t correspond to the anchored neighbours of t in
W(z), the outputs at t to the neighbours z + s_j whose grid reaches t, and
the two lists always have the same length; pairing them in a fixed order
(N, E, S, W against s_1 < s_2 < s_3 < s_4) defines the bijection. The
pointwise certificate in ``validate_scaffolding3d`` is the correctness
argument.
"""

from __future__ import annotations

import functools
import math

import mpmath

from . import lattice
from .errors import InvalidWalk, NotAllowed, OutsideWaffle, PrecisionLoss
from .profiles import CheckResult

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


def paired_start_point(L, i, j):
    """The pyramid point paired with waffle position (i, j)."""
    return (i - j, j, 0, L - i)


@functools.lru_cache(maxsize=4)
def _waffle_graph(L):
    """Waffle point index and in-waffle neighbour rows (N, E, S, W)."""
    pts = [(i, j) for i in range(L + 1) for j in range(L // 2 + 1) if in_waffle((i, j), L)]
    return lattice.neighbour_rows(pts, CARDINAL.values())


def _check_walk(L, n, start):
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    _check_waffle_point(start, L)


def _waffle_count(L, n, start, ends):
    """Walks of length n from ``start`` ending at a point where ``ends`` holds."""
    _check_walk(L, n, start)
    index, rows = _waffle_graph(L)
    counts = [int(ends(pt)) for pt in index]
    for _ in range(n):
        counts = lattice.sweep(counts, rows)
    return counts[index[tuple(start)]]


def count_waffle_walks(L, n, start):
    """Walks of length n inside the waffle from ``start`` ending on the axis."""
    return _waffle_count(L, n, start, lambda pt: pt[1] == 0)


def count_waffle_walks_to(L, n, start, end=(0, 0)):
    """Walks of length n inside the waffle from ``start`` to a single point."""
    end = tuple(end)
    return _waffle_count(L, n, start, lambda pt: pt == end)


def signed_waffle_array(L, n_max):
    """The signed array extending the walk counts to 0 <= j <= i <= L + 1.

    Defined by w[0][i][0] = 1 for i <= L, w[0][L+1][j] = -1 for j >= 1,
    zero elsewhere, and the four-neighbour recurrence

        w[n+1][i][j] = w[n][i+1][j] + w[n][i][j-1] + w[n][i][j+1] + w[n][i-1][j]

    with w = 0 outside the index triangle. It agrees with the confined walk
    counts where i + j <= L and obeys w[n][i][j] = -w[n][L+1-j][L+1-i].
    """
    idx = [(i, j) for i in range(L + 2) for j in range(i + 1)]
    _, rows = lattice.neighbour_rows(idx, CARDINAL.values())
    w = [int(i <= L) if j == 0 else -int(i == L + 1) for i, j in idx]
    out = [dict(zip(idx, w))]
    for _ in range(n_max):
        w = lattice.sweep(w, rows)
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


def anchor_cell(z, pt):
    """The cell of z anchored at ``pt``, or None."""
    di = pt[0] - z[0] - z[2]
    if (di + pt[1]) % 2:
        return None
    cell = ((di + pt[1]) // 2, (pt[1] - di) // 2)
    return cell if _has_cell(z, cell) else None


def anchored_region(z):
    return [anchor(z, c) for c in profile3d(z)]


def allowed_cardinal(z, cell, L):
    return tuple(
        s
        for s in CARDINAL_ORDER
        if in_waffle(tuple(a + b for a, b in zip(anchor(z, cell), CARDINAL[s])), L)
    )


def _local_lists(z, target, L):
    """Incoming (step, cell) pairs aimed at ``target`` and usable exits."""
    ins = []
    for s in CARDINAL_ORDER:
        d = CARDINAL[s]
        src = (target[0] - d[0], target[1] - d[1])
        c = anchor_cell(z, src)
        if c is not None:
            ins.append((s, c))
    outs = []
    for j, w in lattice.forward_neighbours(z).items():
        if min(w) >= 0:
            c = anchor_cell(w, target)
            if c is not None:
                outs.append((j, c))
    return ins, outs


def diamond_delta(z, cell, step):
    """One scaffolding lookup: (cell, cardinal step) to (pyramid step, cell)."""
    L = sum(z)
    if not _has_cell(z, cell):
        raise NotAllowed(f"cell {cell} not in C({z})")
    a = anchor(z, cell)
    d = CARDINAL[step]
    target = (a[0] + d[0], a[1] + d[1])
    if not in_waffle(target, L):
        raise NotAllowed(f"step {step} leaves the waffle from {a}")
    ins, outs = _local_lists(z, target, L)
    if len(ins) != len(outs):
        raise AssertionError(f"anchor class mismatch at z={z}, target={target}")
    return outs[ins.index((step, cell))]


def diamond_delta_inv(z, j, cell):
    """Preimage (cell, cardinal step) of a tagged output cell."""
    target = anchor(lattice.move(z, j), cell)
    L = sum(z)
    ins, outs = _local_lists(z, target, L)
    if (j, cell) not in outs:
        raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")
    s, c = ins[outs.index((j, cell))]
    return c, s


def validate_scaffolding3d(L):
    """Pointwise certificate: bijectivity and anchor tracking everywhere."""
    rep = CheckResult(f"3d scaffolding valid, L={L}")
    for z in pyramid_points(L):
        targets = set()
        for j, w in lattice.forward_neighbours(z).items():
            if min(w) >= 0:
                targets.update((j, c) for c in profile3d(w))
        seen = set()
        for cell in profile3d(z):
            for s in allowed_cardinal(z, cell, L):
                rep.checked += 1
                j, cell2 = diamond_delta(z, cell, s)
                w = lattice.move(z, j)
                a = anchor(z, cell)
                d = CARDINAL[s]
                if anchor(w, cell2) != (a[0] + d[0], a[1] + d[1]):
                    rep.violations.append((z, cell, s, "anchor rule"))
                if (j, cell2) in seen:
                    rep.violations.append((z, cell, s, "collision"))
                seen.add((j, cell2))
        if seen != targets:
            rep.violations.append((z, "image mismatch"))
    return rep


def waffle_to_pyramid(z_c, start_cell, walk):
    """Run the scaffolding along a waffle walk; one pyramid step per letter.

    ``walk`` is a string over NESW starting at the anchor of ``start_cell``.
    For a fixed starting point the map (cell, walk) -> pyramid walk is a
    bijection onto the forward walks of that length.
    """
    L = sum(z_c)
    z, cell = tuple(z_c), tuple(start_cell)
    if not _has_cell(z, cell):
        raise InvalidWalk(f"cell {cell} not in C({z})")
    steps = []
    for ch in walk:
        if ch not in CARDINAL:
            raise InvalidWalk(f"bad letter {ch!r}")
        try:
            j, cell = diamond_delta(z, cell, ch)
        except NotAllowed as exc:
            raise InvalidWalk(str(exc)) from None
        steps.append(j)
        z = lattice.move(z, j)
    return tuple(steps)


def pyramid_to_waffle(z_c, steps):
    """Inverse of ``waffle_to_pyramid``: recover (start cell, walk)."""
    z = tuple(z_c)
    for s in steps:
        z = lattice.move(z, s)
        if min(z) < 0:
            raise InvalidWalk("walk leaves the pyramid")
    cell = (0, 0)
    letters = []
    for s in reversed(steps):
        z = lattice.move(z, -s)
        cell, ch = diamond_delta_inv(z, s, cell)
        letters.append(ch)
    return cell, "".join(reversed(letters))


# -- enumeration oracles ------------------------------------------------------

def enumerate_pyramid_paths(L, start, n, orientation="F"):
    """All forward (or backward) walks of length n from ``start``."""
    return lattice.enumerate_paths(L, 3, start, orientation * n)


def enumerate_waffle_walks(L, start, n, end_on_axis=True):
    """All length-n waffle walks from ``start`` (ending on the axis unless
    ``end_on_axis`` is false), as NESW words in lexicographic N < E < S < W.

    Moves are checked with ``in_waffle``, not read off the counting graph,
    so the enumeration stays an independent oracle for the counts.
    """
    _check_walk(L, n, start)

    def neighbours(_, pt):
        steps = ((s, (pt[0] + dx, pt[1] + dy)) for s, (dx, dy) in CARDINAL.items())
        return [(s, q) for s, q in steps if in_waffle(q, L)]

    ends = (lambda pt: pt[1] == 0) if end_on_axis else (lambda pt: True)
    return ["".join(w) for w in lattice.walks(tuple(start), n, neighbours, ends)]


# -- closed-form generating function and the reflection principle -------------

def pyramid_gf_coefficients(L, N, tolerance=1e-6, dps=None):
    """Taylor coefficients of the corner-walk generating function.

    The closed form is a finite sum of geometric terms: with M = L + 4 and
    c_r = 2 cos(r pi / M),

        P(t) = 1/M^2 * sum over odd 1 <= j < k <= L + 3 of
               (c_k - c_j)^2 (2 + c_j) (2 + c_k) / (1 - (c_j + c_k) t),

    so the n-th coefficient is the same sum with (c_j + c_k)^n in place of
    the geometric factor. Evaluated in high-precision arithmetic; every
    coefficient must round to an integer within ``tolerance``. Since
    |c_j + c_k| < 4, the terms stay below 4^N times a constant, so the
    default working precision is N log10(4) digits plus 20 guard digits.
    """
    if N < 0 or L < 0:
        raise ValueError(f"need N, L >= 0, got N={N}, L={L}")
    if dps is None:
        dps = math.ceil(N * math.log10(4)) + 20
    M = L + 4
    with mpmath.workdps(dps):
        theta = mpmath.pi / M
        terms = []
        for j in range(1, L + 4, 2):
            for k in range(j + 2, L + 4, 2):
                cj = 2 * mpmath.cos(j * theta)
                ck = 2 * mpmath.cos(k * theta)
                terms.append(((ck - cj) ** 2 * (2 + cj) * (2 + ck), cj + ck))
        coeffs = []
        summands = [w for w, _ in terms]  # w * lam^n, advanced one n at a time
        for n in range(N + 1):
            s = mpmath.fsum(summands) / M**2
            r = mpmath.nint(s)
            if abs(s - r) >= tolerance:
                raise PrecisionLoss(f"coefficient {n} off by {abs(s - r)}")
            coeffs.append(int(r))
            summands = [x * lam for x, (_, lam) in zip(summands, terms)]
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
