"""Local rewriting of walks: swap flips, last-step flips, and the tiling view.

A swap flip exchanges an adjacent forward/backward pair:

    (s_j, -s_k) <-> (-s_k, s_j)        when j != k,
    (s_k, -s_k) <-> (-s_{k-1}, s_{k-1})  otherwise (indices cyclic in 1..d+1).

A last-step flip rewrites the final step via s_i <-> -s_{i-1}. Both moves
preserve validity of the walk and are involutions. Composing them transports
a walk from one direction vector to any other; the result is independent of
the order in which flips are applied, which the folded-path tiling below
makes explicit for the triangle (d = 2).

Positions are 0-based: ``swap_flip(steps, i)`` acts on steps i and i + 1.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .errors import (
    BadDirectionVector,
    EmptyPath,
    LengthMismatch,
    MixedInput,
    NotMixedPair,
)


def direction_vector(steps):
    return "".join("F" if s > 0 else "B" for s in steps)


def _swap_pair(s1, s2, d):
    m = d + 1
    if s1 > 0 and s2 < 0:
        j, k = s1, -s2
        if j != k:
            return (-k, j)
        kk = (k - 2) % m + 1  # k - 1 cyclically
        return (-kk, kk)
    if s1 < 0 and s2 > 0:
        k, j = -s1, s2
        if j != k:
            return (j, -k)
        kk = k % m + 1  # k + 1 cyclically
        return (kk, -kk)
    raise NotMixedPair(f"steps {s1}, {s2} are not a forward/backward pair")


def swap_flip(steps, i, d=2):
    """Apply the swap rule at positions i, i + 1; returns a new tuple."""
    steps = list(steps)
    if not 0 <= i < len(steps) - 1:
        raise NotMixedPair(f"position {i} has no right neighbour")
    steps[i], steps[i + 1] = _swap_pair(steps[i], steps[i + 1], d)
    return tuple(steps)


def _last_flip(s, d):
    m = d + 1
    if s > 0:
        return -((s - 2) % m + 1)  # s_i -> -s_{i-1}
    return (-s) % m + 1  # -s_i -> s_{i+1}


def last_step_flip(steps, d=2):
    """Flip the orientation of the final step."""
    if not steps:
        raise EmptyPath("cannot flip the last step of an empty path")
    steps = list(steps)
    steps[-1] = _last_flip(steps[-1], d)
    return tuple(steps)


@dataclass(frozen=True)
class FlipEvent:
    kind: str  # 'swap' or 'last'
    position: int
    before: tuple
    after: tuple

    def to_json(self):
        return {
            "kind": self.kind,
            "position": self.position,
            "before": list(self.before),
            "after": list(self.after),
        }


@functools.lru_cache(maxsize=8)
def _flip_tables(d):
    """The swap image of every mixed pair and the last-step image of every step.

    Both tables are read off ``_swap_pair`` and ``_last_flip``, so the rules
    stay written once; the transport loops below only look entries up.
    """
    steps = [s for k in range(1, d + 2) for s in (k, -k)]
    swap = {(a, b): _swap_pair(a, b, d) for a in steps for b in steps if (a > 0) != (b > 0)}
    last = {s: _last_flip(s, d) for s in steps}
    return swap, last


def _checked_copy(steps, d):
    """``steps`` as a list, once every entry is known to be a step for ``d``."""
    steps = list(steps)
    last = _flip_tables(d)[1]
    if not last.keys() >= set(steps):
        bad = next(s for s in steps if s not in last)
        raise ValueError(f"{bad} is not a step for d={d}; want 1..{d + 1} or -1..-{d + 1}")
    return steps


def _transport_setup(steps, target_dv, d):
    """Shared by both schedules: a checked copy and the backward-step counts."""
    steps = _checked_copy(steps, d)
    n = len(steps)
    if len(target_dv) != n:
        raise LengthMismatch(f"direction vector {target_dv!r} for {n} steps")
    want_b = target_dv.count("B")
    if want_b + target_dv.count("F") != n:
        raise BadDirectionVector(f"direction vector {target_dv!r} has letters other than F/B")
    have_b = len([s for s in steps if s < 0])
    return steps, n, want_b, have_b


def transform(steps, target_dv, d=2, trace=None):
    """Rewrite ``steps`` into the walk with direction vector ``target_dv``.

    Canonical schedule: while the backward-step count is off, bubble the
    rightmost step of the orientation to be converted to the end with swap
    flips and apply a last-step flip there; then sort orientations into
    place left to right with swap flips. Any other schedule reaching the
    same direction vector yields the same walk (confluence), so the choice
    only pins down the intermediate trace.

    When ``trace`` is a list, one ``FlipEvent`` per flip is appended to it.
    """
    steps, n, want_b, have_b = _transport_setup(steps, target_dv, d)
    swap, last = _flip_tables(d)
    # phase 1: the step being bubbled right is carried in ``c``. Every step
    # right of its slot has the other orientation, and so does the flipped
    # last step, so the backwards scan for the next slot resumes below it.
    convert_fwd = have_b < want_b
    pos = n
    for _ in range(abs(want_b - have_b)):
        pos -= 1
        while (steps[pos] > 0) != convert_fwd:
            pos -= 1
        c = steps[pos]
        for j in range(pos, n - 1):
            pair = c, steps[j + 1]
            steps[j], c = out = swap[pair]
            if trace is not None:
                trace.append(FlipEvent("swap", j, pair, out))
        steps[n - 1] = last[c]
        if trace is not None:
            trace.append(FlipEvent("last", n - 1, (c,), (steps[n - 1],)))
    # phase 2: carry the first step of the wanted orientation left into slot i
    for i in range(n):
        want_fwd = target_dv[i] == "F"
        if (steps[i] > 0) != want_fwd:
            j = i + 1
            while (steps[j] > 0) != want_fwd:
                j += 1
            c = steps[j]
            for k in range(j - 1, i - 1, -1):
                pair = steps[k], c
                c, steps[k + 1] = out = swap[pair]
                if trace is not None:
                    trace.append(FlipEvent("swap", k, pair, out))
            steps[i] = c
    return tuple(steps)


def transform_with_trace(steps, target_dv, d=2):
    events = []
    return transform(steps, target_dv, d, trace=events), events


def transform_random(steps, target_dv, rng=None, seed=None, d=2):
    """Like transform, but with a randomized flip schedule (same result)."""
    if rng is None:
        rng = random.Random(seed)
    steps, n, want_b, have_b = _transport_setup(steps, target_dv, d)
    swap, last = _flip_tables(d)
    convert_fwd = have_b < want_b
    for _ in range(abs(want_b - have_b)):
        # push some step of the orientation to convert to the end, one random
        # legal swap at a time, then flip it there
        while (steps[-1] > 0) != convert_fwd:
            candidates = [
                i
                for i in range(n - 1)
                if (steps[i] > 0) == convert_fwd and (steps[i + 1] > 0) != convert_fwd
            ]
            i = rng.choice(candidates)
            steps[i], steps[i + 1] = swap[steps[i], steps[i + 1]]
        steps[-1] = last[steps[-1]]
    # move a random displaced backward step one slot toward its target; some
    # step is movable exactly while the orientations are still out of place
    ws = [i for i, t in enumerate(target_dv) if t == "B"]
    while True:
        bs = [i for i, s in enumerate(steps) if s < 0]
        candidates = []
        for b, w in zip(bs, ws):
            if b > w and steps[b - 1] > 0:
                candidates.append(b - 1)
            elif b < w and steps[b + 1] > 0:
                candidates.append(b)
        if not candidates:
            return tuple(steps)
        i = rng.choice(candidates)
        steps[i], steps[i + 1] = swap[steps[i], steps[i + 1]]


def algorithm1(steps, d=2):
    """The explicit forward/backward involution.

    Pass i flips the current last step and bubbles it left to position i,
    so after n passes every orientation is reversed. Applying it twice gives
    back the input.
    """
    steps = _checked_copy(steps, d)
    n = len(steps)
    if n and len({s > 0 for s in steps}) != 1:
        raise MixedInput("algorithm1 wants an all-forward or all-backward path")
    swap, last = _flip_tables(d)
    for i in range(n):
        c = last[steps[-1]]
        for j in range(n - 2, i - 1, -1):
            c, steps[j + 1] = swap[steps[j], c]
        steps[i] = c
    return tuple(steps)


# -- folded paths and the 9-tile picture (triangle only) --------------------

def fold(steps):
    """The walk followed by its reversed negation."""
    return tuple(steps) + tuple(-s for s in reversed(steps))


@dataclass(frozen=True)
class Tiling:
    """Unit-tile filling of the tilted square of side n.

    Vertices are the integer points (x, y) with |x| + |y| <= n and
    x + y = n (mod 2). Every north-east edge carries a forward step label,
    every south-east edge a backward one, and around each unit tile the two
    bottom labels are the swap-flip rewrite of the two top labels. The
    boundary condition is the folded walk laid from (-n, 0) to (n, 0).

    ``tiles`` maps a tile's left vertex to an id in 1..9, where the tile
    with top labels (s_j, -s_k) gets id 3 (j - 1) + k.
    """

    n: int
    edges: dict = field(hash=False)
    tiles: dict = field(hash=False)

    def top_pair(self, left):
        x, y = left
        return (self.edges[((x, y), (x + 1, y + 1))], self.edges[((x + 1, y + 1), (x + 2, y))])


def tile_id(top_forward, top_backward):
    return 3 * (top_forward - 1) + (-top_backward)


@functools.lru_cache(maxsize=16)
def _cells(n):
    """Each unit tile of the square of side n: its left vertex and the edge
    keys of its top-left, top-right, bottom-left and bottom-right sides."""
    out = []
    for x in range(-n, n - 1):
        for y in range(-n + 1, n):
            if (x + y - n) % 2 == 0:
                a, t, r, b = (x, y), (x + 1, y + 1), (x + 2, y), (x + 1, y - 1)
                if all(abs(u) + abs(v) <= n for u, v in (a, t, r, b)):
                    out.append((a, (a, t), (t, r), (a, b), (b, r)))
    return tuple(out)


def tile(folded, d=2):
    """Fill the tilted square around a folded walk; existence is automatic.

    Wherever two consecutive labels forming a peak (forward then backward)
    are known, the tile below them is forced; a valley forces the tile
    above. Iterating resolves every cell, and no choice ever arises.
    """
    if d != 2:
        raise ValueError("the 9-tile picture is specific to the triangle")
    if len(folded) % 2:
        raise ValueError("fold the walk first")
    n = len(folded) // 2
    edges = {}
    x, y = -n, 0
    for s in folded:
        nxt = (x + 1, y + 1) if s > 0 else (x + 1, y - 1)
        edges[((x, y), nxt)] = s
        (x, y) = nxt
    assert (x, y) == (n, 0), "folded walk must end at (n, 0)"
    swap = _flip_tables(2)[0]
    cells = pending = _cells(n)
    while pending:
        waiting = []
        for cell in pending:
            _, top_l, top_r, bot_l, bot_r = cell
            top_known = top_l in edges and top_r in edges
            bot_known = bot_l in edges and bot_r in edges
            if top_known:
                if not bot_known:
                    edges[bot_l], edges[bot_r] = swap[edges[top_l], edges[top_r]]
            elif bot_known:
                edges[top_l], edges[top_r] = swap[edges[bot_l], edges[bot_r]]
            else:
                waiting.append(cell)
        assert len(waiting) < len(pending), "tiling propagation stalled"
        pending = waiting
    tiles = {a: tile_id(edges[top_l], edges[top_r]) for a, top_l, top_r, _, _ in cells}
    return Tiling(n, edges, tiles)


def read_path(tiling, dv):
    """Labels along the walk from (-n, 0) whose k-th step is NE on F, SE on B."""
    n = tiling.n
    if len(dv) != n:
        raise LengthMismatch(f"direction vector {dv!r} for a square of side {n}")
    edges = tiling.edges
    a = (-n, 0)
    out = []
    for ch in dv:
        x, y = a
        b = (x + 1, y + 1) if ch == "F" else (x + 1, y - 1)
        out.append(edges[a, b])
        a = b
    return tuple(out)
