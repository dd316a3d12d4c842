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
from operator import add, itemgetter, sub

from .errors import BadDirectionVector, CapExceeded, NotAllowed, OutOfLattice

DEFAULT_CAP = 1_000_000


def origin(L, d=2):
    """Bottom corner ``L * e_{d+1}``, the reference start of most walks."""
    if L < 0 or d < 1:
        raise ValueError(f"need L >= 0 and d >= 1, got L={L}, d={d}")
    return (0,) * d + (L,)


def step_vector(step, d=2):
    """Displacement of a signed step in the (d+1)-coordinate representation.
    A step that is not an int in +-1..+-(d+1) raises ValueError."""
    if type(step) is not int or not 1 <= abs(step) <= d + 1:
        raise _bad_step(step, d)
    j = abs(step)
    v = [0] * (d + 1)
    sign = 1 if step > 0 else -1
    v[j - 1] += sign
    v[(j - 2) % (d + 1)] -= sign
    return tuple(v)


def _bad_step(step, d):
    """The ValueError of a step that is not an int in +-1..+-(d+1)."""
    j = abs(step) if type(step) is int else repr(step)
    return ValueError(f"step index {j} out of range for d={d}")


# n -> the step-vector table of points of n coordinates: every step of that
# dimension to its vector. Filled on first use, so importing builds nothing
_STEP_TABLES = {}


def _step_table(n):
    table = _STEP_TABLES.get(n)
    if table is None:
        table = _STEP_TABLES[n] = {s: step_vector(s, n - 1)
                                   for j in range(1, n + 1) for s in (j, -j)}
    return table


def move(z, step):
    """The point ``z`` moved by ``step``; it may leave the lattice.

    A backward move is ``move(z, -step)``, and a step that is not in the
    step-vector table of ``z``'s dimension raises ValueError. Points of 3 and
    4 coordinates, the triangle and the pyramid, are added coordinate by
    coordinate. The walk loops below do the same arithmetic inline.
    """
    n = len(z)
    try:
        v = _STEP_TABLES[n][step]
    except KeyError:  # a dimension not met yet, or a bad step
        v = _step_table(n).get(step)
        if v is None:
            raise _bad_step(step, n - 1) from None
    if n == 3:
        x1, x2, x3 = z
        v1, v2, v3 = v
        return (x1 + v1, x2 + v2, x3 + v3)
    if n == 4:
        x1, x2, x3, x4 = z
        v1, v2, v3, v4 = v
        return (x1 + v1, x2 + v2, x3 + v3, x4 + v4)
    return tuple(map(add, z, v))


def run(z, state, letters, lookup):
    """Drive a scaffolding from point ``z`` in ``state``: per letter, one
    ``lookup(z, state, letter) -> (step, state)`` and point arithmetic, no
    list of points. Returns (steps, end point, end state). A refused lookup
    raises NotAllowed, and a walk off the lattice OutOfLattice, with no
    check per letter: no scaffolding has an entry off the lattice, so a step
    that leaves it fails the next lookup, and a last step that leaves fails
    the check at the end. A step that ``move`` refuses raises its ValueError."""
    n = len(z)
    vectors = _step_table(n)
    steps = []
    try:
        for letter in letters:
            s, state = lookup(z, state, letter)
            steps.append(s)
            if n == 3:
                (x1, x2, x3), (v1, v2, v3) = z, vectors[s]
                z = (x1 + v1, x2 + v2, x3 + v3)
            elif n == 4:
                (x1, x2, x3, x4), (v1, v2, v3, v4) = z, vectors[s]
                z = (x1 + v1, x2 + v2, x3 + v3, x4 + v4)
            else:
                z = tuple(map(add, z, vectors[s]))
    except NotAllowed:
        if min(z) >= 0:
            raise
    except KeyError:
        if not steps or steps[-1] in vectors:  # raised by the lookup
            raise
        raise _bad_step(steps[-1], n - 1) from None
    if min(z) < 0:
        raise OutOfLattice(f"step {len(steps)} leaves the lattice at {z}")
    return tuple(steps), z, state


def check_forward(z, steps, error):
    """The end point of the walk ``steps`` from the lattice point ``z``, or
    ``error``, the family's exception type, at the first step that is not
    forward or leaves the lattice. A forward step is an int (not a bool or a
    float that equals one) s in 1..len(z); it adds one to coordinate s and
    takes one from coordinate s - 1, cyclically, which is the only one that
    can turn negative. One pass, which keeps only the current point."""
    n = len(z)
    shape = {3: "triangle", 4: "pyramid"}.get(n, "lattice")
    x = list(z)
    for s in steps:
        if type(s) is not int or not 0 < s <= n:
            raise error(f"bad step {s!r}: a {shape} walk takes forward steps 1-{n}")
        x[s - 1] += 1
        x[s - 2] -= 1
        if x[s - 2] < 0:
            raise error(f"walk leaves the {shape}")
    return tuple(x)


def unrun(z, steps, state, inverse, error):
    """Undo ``run`` on the walk ``steps`` from ``z`` that ended in ``state``:
    (start state, the letters as one string). ``check_forward`` checks the
    walk and gives its end point; from there, per step from the far end, the
    point before it by subtracting the step, and one
    ``inverse(z, step, state) -> (state, letter)``: no list of points."""
    z = check_forward(z, steps, error)
    n = len(z)
    vectors = _step_table(n)
    letters = []
    for s in reversed(steps):
        if n == 3:
            (x1, x2, x3), (v1, v2, v3) = z, vectors[s]
            z = (x1 - v1, x2 - v2, x3 - v3)
        elif n == 4:
            (x1, x2, x3, x4), (v1, v2, v3, v4) = z, vectors[s]
            z = (x1 - v1, x2 - v2, x3 - v3, x4 - v4)
        else:
            z = tuple(map(sub, z, vectors[s]))
        state, letter = inverse(z, s, state)
        letters.append(letter)
    return state, "".join(reversed(letters))


def forward_neighbours(z):
    """The candidate targets z + s_j, keyed by j; some may leave the lattice."""
    return {j: move(z, j) for j in range(1, len(z) + 1)}


def check_start(L, d, start):
    """``start`` as a tuple, or OutOfLattice(0) unless it is a point of the
    lattice of side L in dimension d: d + 1 coordinates, none negative,
    summing to L."""
    z = tuple(start)
    if len(z) != d + 1 or sum(z) != L or min(z) < 0:
        raise OutOfLattice(f"start {z} not in the lattice of side {L}, d={d}", prefix_len=0)
    return z


def validate_path(L, d, start, steps):
    """All n+1 visited points, or OutOfLattice(k) for the first bad prefix.
    A step that is not an int in +-1..+-(d+1) raises ValueError."""
    z = check_start(L, d, start)
    vectors = _step_table(d + 1)
    pts = [z]
    for k, s in enumerate(steps, start=1):
        if type(s) is not int or s not in vectors:
            raise _bad_step(s, d)
        if d == 2:
            (x1, x2, x3), (v1, v2, v3) = z, vectors[s]
            z = (x1 + v1, x2 + v2, x3 + v3)
        elif d == 3:
            (x1, x2, x3, x4), (v1, v2, v3, v4) = z, vectors[s]
            z = (x1 + v1, x2 + v2, x3 + v3, x4 + v4)
        else:
            z = tuple(map(add, z, vectors[s]))
        if min(z) < 0:
            raise OutOfLattice(f"prefix of length {k} leaves the lattice at {z}", prefix_len=k)
        pts.append(z)
    return pts


def all_points(L, d=2):
    """Every point of the lattice, lexicographically by coordinates."""
    return list(_graph(L, d)[0])


def neighbour_rows(pts, moves):
    """Index of ``pts``, and one gather per move for ``sweep``.

    The gather of move v is an ``operator.itemgetter`` that reads, for every
    point z of ``pts`` in order, the count at z + v; a neighbour outside
    ``pts`` reads position ``len(pts)``, the zero pad that ``sweep`` appends.
    """
    index = {z: k for k, z in enumerate(pts)}
    pad = len(pts)
    gathers = tuple(
        _gather([index.get(tuple(map(add, z, v)), pad) for z in pts]) for v in moves
    )
    return index, gathers


def _gather(positions):
    """``itemgetter(*positions)``, which returns a tuple for any length: with
    fewer than two positions itemgetter would return a bare value or fail, so
    those read a slice instead."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


@functools.lru_cache(maxsize=4)
def _graph(L, d):
    """Point index and neighbour gathers per step family: F, B, and G for both.

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
    fam["G"] = fam["F"] + fam["B"]
    return index, fam


def sweep(counts, gathers):
    """One backwards DP step: the new count at point k is the sum, over the
    moves, of the count at the k-th neighbour that each gather reads."""
    padded = [*counts, 0]
    first, *rest = gathers
    total = first(padded)
    for gather in rest:
        total = map(add, total, gather(padded))
    return list(total)


# (a, b): ``tridiagonal_power`` takes x^n mod chi for n > a + b N and the
# packed sweep below, N the size of T. Fitted to where the two engines took
# equal time, for N = 2..43 (the engine rows of bench/micro.py in
# BENCH_21.json)
POWER_CROSSOVER = 150, 5


def _crossover(diag):
    """The n above which ``tridiagonal_power`` takes x^n mod chi."""
    a, b = POWER_CROSSOVER
    return a + b * len(diag)


def tridiagonal_power(diag, n, vectors):
    """T^n v for each v in ``vectors``, exactly, as lists of ints.

    T is the symmetric tridiagonal matrix with the 0/1 diagonal ``diag`` and
    ones beside it: one step of T sends the count at k to k - 1, k + 1 and,
    where diag[k] is 1, k itself, and drops what leaves 0..len(diag) - 1.
    Each vector holds len(diag) non-negative ints; any other input is a
    ValueError. With N = len(diag), walks of up to
    ``_crossover(diag)`` steps take the packed sweep, O(n) big-int operations
    on N slots of O(n) bits; longer ones take x^n mod chi, O(log n) squarings
    and O(N^2 log n) multiply-adds of numbers of O(n) bits.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not diag or not set(diag) <= {0, 1}:
        raise ValueError(f"need a non-empty 0/1 diagonal, got {diag!r}")
    for v in vectors:
        if len(v) != len(diag) or min(v) < 0:
            raise ValueError(f"need {len(diag)} non-negative entries per vector, got {v!r}")
    if n > _crossover(diag):
        return _power_mod_chi(diag, n, vectors)
    return _packed_sweep(diag, n, vectors)


def _tridiagonal_step(diag, v):
    """T v, as a list, for the T of ``tridiagonal_power``: the entry at k is
    the sum of those at k - 1 and k + 1, plus its own where diag[k] is 1."""
    return [(e if a else 0) + b + c for a, e, b, c in zip(diag, v, [0, *v], [*v[1:], 0])]


def _packed_sweep(diag, n, vectors):
    """T^n v for each v, by n packed steps.

    All vectors share one int. Each entry has a slot of W bits, wide enough
    for B_n = (2 + max(diag))^n max(v), a bound on every entry of T^m v for
    m <= n, and each vector one empty slot above its N entries. A step is two
    shifts, two masks and two additions of that int: the diagonal entries
    stay, every slot gains its neighbours, and the last mask empties what
    reached the gaps. No slot carries into the next: an entry of step m is
    at most B_m, and a gap takes two entries of step m - 1, at most
    2 B_{m-1} <= B_m. So a step costs a few operations on the whole int,
    whatever its contents.
    """
    N, blocks = len(diag), len(vectors)
    if not blocks:
        return []
    W = ((2 + max(diag)) ** n * max(map(max, vectors))).bit_length() or 1
    span = (N + 1) * W  # one vector's slots and its gap
    slot = (1 << W) - 1
    x = 0
    for b, v in enumerate(vectors):
        for k, e in enumerate(v):
            if e:
                x += e << (b * span + k * W)
    repeat = sum(1 << (b * span) for b in range(blocks))  # a mask for one vector, times this
    dmask = sum(slot << (k * W) for k, d in enumerate(diag) if d) * repeat
    full = ((1 << (N * W)) - 1) * repeat
    for _ in range(n):
        x = ((x & dmask) + (x << W) + (x >> W)) & full
    flat = [(x >> s) & slot for s in range(0, blocks * span, W)]
    return [flat[b * (N + 1):b * (N + 1) + N] for b in range(blocks)]


@functools.lru_cache(maxsize=16)
def _reduction(diag):
    """The pairs (k, c) with x^N = sum of c x^k mod chi, chi = det(xI - T) for
    the tuple ``diag``, N its length. chi comes from the three-term recurrence
    p_k = (x - diag[k-1]) p_{k-1} - p_{k-2} of the leading minors. Cached per
    diagonal; it holds structure only, never a count."""
    prev, cur = [0], [1]
    for a in diag:
        nxt = [0, *cur]
        for k, c in enumerate(cur):
            nxt[k] -= a * c
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return tuple((k, -c) for k, c in enumerate(cur[:-1]) if c)


def _square(poly):
    """The coefficients of poly(x)^2, by one big-int square (Kronecker).

    Each signed coefficient gets a slot of whole bytes, wide enough for any
    product coefficient with a spare sign bit. The square's slots are read back
    after adding half a slot to each, which makes every slot non-negative.
    """
    terms = len(poly)
    bits = max(abs(c) for c in poly).bit_length()
    B = (2 * bits + terms.bit_length() + 9) // 8
    pos = int.from_bytes(b"".join(c.to_bytes(B, "little") if c > 0 else bytes(B)
                                  for c in poly), "little")
    neg = int.from_bytes(b"".join((-c).to_bytes(B, "little") if c < 0 else bytes(B)
                                  for c in poly), "little")
    width = 2 * terms - 1
    half = 1 << (8 * B - 1)
    bias = int.from_bytes((bytes(B - 1) + b"\x80") * width, "little")
    raw = ((pos - neg) ** 2 + bias).to_bytes(width * B, "little")
    return [int.from_bytes(raw[k * B:(k + 1) * B], "little") - half for k in range(width)]


def _power_mod_chi(diag, n, vectors):
    """T^n v for each v, by Cayley-Hamilton (Fiduccia 1985): T^n = r(T) with
    r = x^n mod chi, chi = det(xI - T), so T^n v = sum over k < N of r_k T^k v.

    r comes by square-and-multiply from the top bit of n: a square by
    ``_square``, a multiply by x a shift, each reduced by the monic chi,
    whose coefficients are small. One r serves every vector.
    """
    N = len(diag)
    rules = _reduction(tuple(diag))

    def reduce(poly):
        for top in range(len(poly) - 1, N - 1, -1):
            q = poly.pop()
            if q:
                base = top - N
                for k, c in rules:
                    poly[base + k] += q * c
        return poly

    bits = bin(n)[2:]
    m, used = 0, 0  # r = x^m, written out while m < N
    while used < len(bits) and 2 * m + int(bits[used]) < N:
        m = 2 * m + int(bits[used])
        used += 1
    r = [0] * N
    r[m] = 1
    for bit in bits[used:]:
        r = reduce(_square(r))
        if bit == "1":
            r = reduce([0, *r])
    out = []
    for w in vectors:
        total = [0] * N
        for rk in r:  # w = T^k v, small: its entries stay below 3^N max(v)
            for i, e in enumerate(w):
                if e:
                    total[i] += rk * e
            w = _tridiagonal_step(diag, w)
        out.append(total)
    return out


def point_index(L, d, start):
    """Position of ``start`` in ``all_points(L, d)``; OutOfLattice if absent."""
    try:
        return _graph(L, d)[0][tuple(start)]
    except KeyError:
        raise OutOfLattice(f"start {tuple(start)} not in the lattice of side {L}, d={d}") from None


def check_dv(dv):
    """BadDirectionVector unless ``dv`` is a string over F and B."""
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
    check_dv(dv)
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


def walks(start, n, neighbours, ends, cap=DEFAULT_CAP):
    """Every n-move walk from ``start`` that stops at a point where ``ends``
    holds, as tuples of move labels.

    ``neighbours(i, v)`` lists the (label, target) pairs of the i-th move
    from point v; walks come depth first, in that order. A forward pass
    collects the points each move can reach, and a backward pass keeps only
    the moves from which a walk can still finish, so the cost grows with the
    reachable points and the output, never with the whole domain. It reads
    no counts, so enumeration stays independent of ``sweep``. The search
    keeps its own stack, so no length reaches the recursion limit. More than
    ``cap`` walks raise CapExceeded.
    """
    if cap < 0:
        raise ValueError(f"need cap >= 0, got cap={cap}")
    layers = [{start: None}]  # layers[i]: the points reached after i moves
    for i in range(n):
        layer, reached = layers[i], {}
        for v in layer:
            layer[v] = moves = neighbours(i, v)
            reached.update(dict.fromkeys(w for _, w in moves))
        layers.append(reached)
    live = {v for v in layers[n] if ends(v)}
    for i in reversed(range(n)):  # keep the live moves, last first, as stack entries
        layer = layers[i]
        for v, moves in layer.items():
            layer[v] = [(i + 1, w, m) for m, w in reversed(moves) if w in live]
        live = {v for v, branches in layer.items() if branches}
    if start not in live:
        return []
    out, acc = [], []
    stack = [(0, start, None)]  # (moves made, point reached, label of the last move)
    while stack:
        i, v, label = stack.pop()
        if i:
            acc[i - 1:] = (label,)
        if i == n:
            if len(out) >= cap:
                raise CapExceeded(f"more than {cap} walks")
            out.append(tuple(acc))
        else:
            stack += layers[i][v]
    return out


def enumerate_paths(L, d, start, dv, cap=DEFAULT_CAP):
    """All walks with direction vector ``dv``, ordered by step index sequence.

    Serves as the enumeration oracle for the DP counts, so it moves points
    with ``move`` and a bounds check and never reads the counting graph;
    guarded by ``cap``.
    """
    start = check_start(L, d, start)
    check_dv(dv)
    families = {"F": range(1, d + 2), "B": range(-1, -d - 2, -1)}

    def neighbours(i, z):
        return [(s, q) for s in families[dv[i]] if min(q := move(z, s)) >= 0]

    return walks(start, len(dv), neighbours, lambda z: True, cap)


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
    One DP per interleaving: the oracle of the closed form the CLI serves.
    """
    if p < 0 or q < 0:
        raise ValueError(f"need p, q >= 0, got p={p}, q={q}")
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


def _too_large(text):
    """Why int() refused ``text``, if ``text`` is a signed decimal integer:
    then it has more digits than int() converts (4,300 by default). Said
    without echoing the digits; None for any other text."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in "+-" else digits
    return f"value too large ({len(digits)} digits)" if digits.isdecimal() else None


def parse_point(text):
    coords = []
    for t in text.split(","):
        try:
            coords.append(int(t))
        except ValueError:
            why = _too_large(t)
            raise ValueError(f"bad point: {why}" if why else
                             f"bad point {text!r}; want comma-separated ints") from None
    return tuple(coords)


def _step_token(s):
    return f"s{s}" if s > 0 else f"-s{-s}"


def _token(tok):
    """The signed step written ``s<k>`` or ``-s<k>``."""
    neg = tok.startswith("-")
    body = tok[1:] if neg else tok
    # isdecimal, not isdigit: int() reads no superscript or other digit sign
    if not body.startswith("s") or not body[1:].isdecimal():
        raise ValueError(f"bad step token {tok!r}; want s<k> or -s<k>")
    try:
        j = int(body[1:])
    except ValueError:
        raise ValueError(f"bad step token: {_too_large(body[1:])}") from None
    return -j if neg else j


class _Table(dict):
    """key -> ``compute(key)``, filled for ``keys``; any other key is
    computed on demand and not kept."""

    def __init__(self, compute, keys):
        super().__init__((key, compute(key)) for key in keys)
        self.compute = compute

    def __missing__(self, key):
        return self.compute(key)


# the steps of the triangle and the pyramid, and their tokens
_STEP_TEXT = _Table(_step_token, [s for j in range(1, 5) for s in (j, -j)])
_TEXT_STEP = _Table(_token, _STEP_TEXT.values())


def format_steps(steps):
    """The walk as text, ``s<k>`` or ``-s<k>`` per step, one space apart."""
    return " ".join(map(_STEP_TEXT.__getitem__, steps))


def parse_steps(text):
    return tuple(map(_TEXT_STEP.__getitem__, text.split()))
