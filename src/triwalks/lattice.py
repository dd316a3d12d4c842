"""Simplicial lattices, walks inside them, and exact counting.

The lattice of side ``L`` in dimension ``d`` is the set of integer vectors
``(x_1, ..., x_{d+1})`` with all ``x_i >= 0`` and ``x_1 + ... + x_{d+1} = L``.
For ``d = 2`` this is a triangle of side ``L``, for ``d = 3`` a pyramid.

Representation conventions used throughout the package:

* a point is a tuple of ``d + 1`` non-negative ints summing to ``L``;
* a step is a signed int: ``+j`` is the forward step ``e_j - e_{j-1}``
  (indices cyclic, so ``e_0`` means ``e_{d+1}``), ``-j`` its reversal;
* a direction vector is a string over ``F``/``B``, one letter per step.

All counting is exact (Python ints); forward path counts grow roughly like
``3^n`` in the triangle and must never be truncated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add

from .errors import BadDirectionVector, CapExceeded, OutOfLattice

DEFAULT_CAP = 1_000_000


def origin(L, d=2):
    """Bottom corner ``L * e_{d+1}``, the reference start of most walks."""
    if L < 0 or d < 1:
        raise ValueError(f"need L >= 0 and d >= 1, got L={L}, d={d}")
    return (0,) * d + (L,)


def step_vector(step, d=2):
    """Displacement of a signed step in the (d+1)-coordinate representation."""
    j = abs(step)
    if not 1 <= j <= d + 1:
        raise ValueError(f"step index {j} out of range for d={d}")
    v = [0] * (d + 1)
    sign = 1 if step > 0 else -1
    v[j - 1] += sign
    v[(j - 2) % (d + 1)] -= sign
    return tuple(v)


def forward_neighbours(z):
    """The candidate targets z + s_j, keyed by j; some may leave the lattice."""
    d = len(z) - 1
    return {j: tuple(map(add, z, step_vector(j, d))) for j in range(1, d + 2)}


def apply_step(point, step):
    """Move ``point`` by ``step``; raises OutOfLattice on a negative coordinate."""
    d = len(point) - 1
    q = tuple(a + b for a, b in zip(point, step_vector(step, d)))
    if min(q) < 0:
        raise OutOfLattice(f"{point} + step {step} leaves the lattice")
    return q


@dataclass(frozen=True)
class LatticePath:
    """A validated walk: side length, dimension, start point and signed steps."""

    L: int
    d: int
    start: tuple
    steps: tuple

    def __post_init__(self):
        if sum(self.start) != self.L or min(self.start) < 0:
            raise OutOfLattice(f"start {self.start} not in the lattice of side {self.L}")
        validate_path(self.L, self.d, self.start, self.steps)

    def points(self):
        return validate_path(self.L, self.d, self.start, self.steps)

    @property
    def end(self):
        return self.points()[-1]

    def direction_vector(self):
        return "".join("F" if s > 0 else "B" for s in self.steps)


def validate_path(L, d, start, steps):
    """All n+1 visited points, or OutOfLattice(k) for the first bad prefix."""
    if sum(start) != L or min(start) < 0 or len(start) != d + 1:
        raise OutOfLattice(f"start {start} not in the lattice of side {L}", prefix_len=0)
    pts = [tuple(start)]
    p = list(start)
    for k, step in enumerate(steps, start=1):
        v = step_vector(step, d)
        p = [a + b for a, b in zip(p, v)]
        if min(p) < 0:
            raise OutOfLattice(
                f"prefix of length {k} leaves the lattice at {tuple(p)}", prefix_len=k
            )
        pts.append(tuple(p))
    return pts


def all_points(L, d=2):
    """Every point of the lattice, lexicographically by coordinates."""
    return list(_graph(L, d)[0])


def neighbour_rows(pts, moves):
    """Index of ``pts``, and per point the positions of its neighbours in ``pts``."""
    index = {z: k for k, z in enumerate(pts)}
    rows = tuple(
        tuple(index[q] for q in (tuple(map(add, z, v)) for v in moves) if q in index)
        for z in pts
    )
    return index, rows


@functools.lru_cache(maxsize=4)
def _graph(L, d):
    """Point index and neighbour rows per step family: F, B, and G for both.

    Points are indexed lexicographically by coordinates. Cached per lattice;
    it holds structure only, never a count. A few entries suffice, because
    callers sweep one lattice many times in a row.
    """
    heads = itertools.product(range(L + 1), repeat=d)
    pts = [h + (L - sum(h),) for h in heads if sum(h) <= L]
    fam = {}
    for ch, sign in (("F", 1), ("B", -1)):
        moves = [step_vector(sign * j, d) for j in range(1, d + 2)]
        index, fam[ch] = neighbour_rows(pts, moves)
    fam["G"] = tuple(f + b for f, b in zip(fam["F"], fam["B"]))
    return index, fam


def sweep(counts, rows):
    """One backwards DP step: the new count at k sums the counts over row k."""
    return [sum([counts[k] for k in row]) for row in rows]


def point_index(L, d, start):
    """Position of ``start`` in ``all_points(L, d)``; OutOfLattice if absent."""
    try:
        return _graph(L, d)[0][tuple(start)]
    except KeyError:
        raise OutOfLattice(f"start {tuple(start)} not in the lattice of side {L}, d={d}") from None


def _check_dv(dv):
    bad = set(dv) - {"F", "B"}
    if bad:
        raise BadDirectionVector(f"direction vector {dv!r} has letters {sorted(bad)}; want F/B")


def _table(L, d, letters):
    index, fam = _graph(L, d)
    counts = [1] * len(index)
    for ch in reversed(letters):
        counts = sweep(counts, fam[ch])
    return counts


def count_table(L, d, dv):
    """Exact walk counts with direction vector ``dv``, indexed like ``all_points``.

    Dynamic programming from the end of the walk: after the last k letters,
    entry z holds the number of completions of length k from z.
    """
    _check_dv(dv)
    return _table(L, d, dv)


def generic_table(L, d, n):
    """Length-n walk counts over both step families, from every point."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return _table(L, d, "G" * n)


def count_paths(L, d, start, dv):
    """Exact number of walks from ``start`` with direction vector ``dv``."""
    k = point_index(L, d, start)
    return count_table(L, d, dv)[k]


def count_generic(L, d, start, n):
    """Number of length-n walks using both forward and backward steps."""
    k = point_index(L, d, start)
    return generic_table(L, d, n)[k]


def enumerate_paths(L, d, start, dv, cap=DEFAULT_CAP):
    """All walks with direction vector ``dv``, ordered by step index sequence.

    Serves as the enumeration oracle for the DP counts; guarded by ``cap``.
    """
    start = tuple(start)
    if len(start) != d + 1 or sum(start) != L or min(start) < 0:
        raise OutOfLattice(f"start {start} not in the lattice of side {L}, d={d}")
    _check_dv(dv)
    out = []

    def rec(p, acc):
        if len(acc) == len(dv):
            if len(out) >= cap:
                raise CapExceeded(f"more than {cap} walks")
            out.append(tuple(acc))
            return
        fwd = dv[len(acc)] == "F"
        for j in range(1, d + 2):
            step = j if fwd else -j
            q = tuple(a + b for a, b in zip(p, step_vector(step, d)))
            if min(q) >= 0:
                acc.append(step)
                rec(q, acc)
                acc.pop()

    rec(start, [])
    return out


def enumerate_generic(L, d, start, n, cap=DEFAULT_CAP):
    """All length-n walks over both step families (oracle for count_generic)."""
    out = []
    for dv in itertools.product("FB", repeat=n):
        out.extend(enumerate_paths(L, d, start, "".join(dv), cap=cap))
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} walks")
    return out


def count_bicolored_pairs(L, p, q, d=2):
    """Walks from the origin with exactly p forward and q backward steps.

    Summed over every interleaving of the two orientations; by the direction
    vector symmetry this equals binomial(p+q, p) times the forward count.
    """
    start = origin(L, d)
    total = 0
    for positions in itertools.combinations(range(p + q), p):
        dv = ["B"] * (p + q)
        for i in positions:
            dv[i] = "F"
        total += count_paths(L, d, start, "".join(dv))
    return total


# -- serialization ----------------------------------------------------------

def format_point(point):
    return ",".join(str(c) for c in point)


def parse_point(text):
    try:
        coords = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad point {text!r}; want comma-separated ints") from None
    return coords


def format_steps(steps):
    return " ".join(f"s{s}" if s > 0 else f"-s{-s}" for s in steps)


def parse_steps(text):
    steps = []
    for tok in text.split():
        neg = tok.startswith("-")
        body = tok[1:] if neg else tok
        if not body.startswith("s") or not body[1:].isdigit():
            raise ValueError(f"bad step token {tok!r}; want s<k> or -s<k>")
        j = int(body[1:])
        steps.append(-j if neg else j)
    return tuple(steps)
