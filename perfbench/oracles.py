"""Per-op answer checks, run outside the timed region.

Each check uses one of the paper's identities or a round trip through the
inverse map, never the function that produced the answer:

* triangle walks: f_n(z) = sum_i p_i(z) M_n(i) for every direction vector,
  with the profile p(z) and the meander counts M_n(i) computed here;
* generic walks: 2^n times the forward count;
* bicolored pairs: C(p+q, p) M_{p+q}(0);
* meanders from height k: |G_n(k)| - |G_n(k-1)|, walks from the edge point
  (k, 0, L-k) counted by a dynamic program written here;
* corner pyramid walks (either orientation), corner waffle walks and the
  generating function's coefficients: ``corner_count_by_reflection``;
* maps: the inverse map brings the output back to the input, and the output
  is a valid walk (``lattice.validate_path``) or a valid bounded word;
* samples: valid objects of the requested length.

A check returns None when the answer is right, else a short reason.
"""

from __future__ import annotations

import math

from inputs import _CARDINAL, _HEIGHT_MOVE, _TRIANGLE_STEP, in_waffle, triangle_points


# -- the paper's counting identities, computed independently ------------------

def profile(z):
    """(p_0, ..., p_H): leading coefficients of prod_k (1 - x^(x_k+1)) / (1 - x)^2."""
    L = sum(z)
    num = [1]
    for x in z:
        nxt = [0] * (len(num) + x + 1)
        for i, c in enumerate(num):
            nxt[i] += c
            nxt[i + x + 1] -= c
        num = nxt
    out = []
    for _ in range(2):  # divide twice by (1 - x): prefix sums
        acc, run = [], 0
        for c in num:
            run += c
            acc.append(run)
        num = acc
    return num[: L // 2 + 1]


def meander_row(L, n):
    """M_n(i) for i = 0..floor(L/2): meanders of length n from height i, amplitude <= L."""
    H = L // 2
    row = [1] + [0] * H
    for _ in range(n):
        row = [
            (row[i + 1] if i < H else 0)
            + (row[i] if (i < H or L % 2 == 1) else 0)
            + (row[i - 1] if i > 0 else 0)
            for i in range(H + 1)
        ]
    return row


def forward_count(L, z, n):
    """f_n(z) = sum_i p_i(z) M_n(i), the same for every direction vector."""
    return sum(p * m for p, m in zip(profile(z), meander_row(L, n)))


def triangle_walk_counts(L, n):
    """Forward walks of length n from every point of the triangle, by sweeps."""
    pts = triangle_points(L)
    index = {p: k for k, p in enumerate(pts)}
    nbrs = []
    for p in pts:
        row = []
        for v in _TRIANGLE_STEP.values():
            q = (p[0] + v[0], p[1] + v[1], p[2] + v[2])
            if min(q) >= 0:
                row.append(index[q])
        nbrs.append(row)
    counts = [1] * len(pts)
    for _ in range(n):
        counts = [sum(counts[k] for k in row) for row in nbrs]
    return dict(zip(pts, counts))


# -- validity of objects ------------------------------------------------------

def motzkin_problem(word, L, n, start_height=0):
    """Why ``word`` is not a meander of length n with amplitude <= L, or None."""
    if len(word) != n:
        return f"length {len(word)} != {n}"
    H = L // 2
    h = start_height
    for ch in word:
        if ch not in _HEIGHT_MOVE:
            return f"bad letter {ch!r}"
        if ch == "F" and h == H and L % 2 == 0:
            return "flat step at the top height"
        h += _HEIGHT_MOVE[ch]
        if not 0 <= h <= H:
            return f"height {h} outside 0..{H}"
    return None if h == 0 else f"ends at height {h}"


def amplitude(word):
    h, top, flat_top = 0, 0, False
    for ch in word:
        if ch == "F" and h == top:
            flat_top = True
        h += _HEIGHT_MOVE[ch]
        if h > top:
            top, flat_top = h, False
    return 2 * top + 1 if flat_top else 2 * top


def waffle_problem(walk, L):
    i = j = 0
    for ch in walk:
        di, dj = _CARDINAL[ch]
        i, j = i + di, j + dj
        if not in_waffle(i, j, L):
            return "leaves the waffle"
    return None if j == 0 else "does not end on the axis"


class Oracle:
    """Checks answers; holds the package modules and the saved scaffoldings.

    Nothing else is cached, so the checks' memory does not grow with the
    number of passes and does not show in the run's peak memory.
    """

    def __init__(self, tw):
        self.tw = tw
        self._scaffoldings = {}

    def corner(self, L, n):
        return self.tw.pyramid3d.corner_count_by_reflection(L, n)

    def scaffolding(self, path):
        if path not in self._scaffoldings:
            with open(path) as fh:
                self._scaffoldings[path] = self.tw.scaffold2d.RandomScaffolding.loads(fh.read())
        return self._scaffoldings[path]

    def check(self, op, doc):
        """None if the answer in ``doc`` is right, else why not."""
        method = getattr(self, "_" + op["kind"].replace(" ", "_"))
        try:
            return method(op["check"], doc["outputs"])
        except Exception as exc:  # an answer that cannot be read back is wrong
            return f"{type(exc).__name__}: {exc}"

    # -- count ops --------------------------------------------------------------

    def _count_triangular(self, c, out):
        want = forward_count(c["L"], tuple(c["start"]), c["n"])
        return _equal(out["count"], want)

    def _count_generic(self, c, out):
        want = (1 << c["n"]) * forward_count(c["L"], tuple(c["start"]), c["n"])
        return _equal(out["count"], want)

    def _count_bicolored(self, c, out):
        m = c["p"] + c["q"]
        return _equal(out["count"], math.comb(m, c["p"]) * meander_row(c["L"], m)[0])

    def _count_pyramid(self, c, out):
        return _equal(out["count"], self.corner(c["L"], c["n"]))

    def _count_waffle(self, c, out):
        # w(0, 0) = p(0, 0) - p(-1, -1) = p(0, 0): the corner pyramid count
        return _equal(out["count"], self.corner(c["L"], c["n"]))

    def _count_motzkin(self, c, out):
        A, n, i = c["A"], c["n"], c["i"]
        g = triangle_walk_counts(A, n)
        want = g[(i, 0, A - i)] - (g[(i - 1, 0, A - i + 1)] if i else 0)
        return _equal(out["count"], want)

    def _gf(self, c, out):
        coeffs = out["coefficients"]
        if len(coeffs) != c["terms"] + 1:
            return f"{len(coeffs)} coefficients for {c['terms']} terms"
        for n, coeff in enumerate(coeffs):
            bad = _equal(coeff, self.corner(c["L"], n))
            if bad:
                return f"coefficient {n}: {bad}"
        return None

    def _enumerate_triangular(self, c, out):
        lattice = self.tw.lattice
        items = out["items"]
        dv = c["dv"]
        want = forward_count(c["L"], tuple(c["start"]), len(dv))
        if out["count"] != len(items) or len(items) != want or len(set(items)) != len(items):
            return f"{len(items)} walks, want {want} distinct"
        for text in items:
            steps = lattice.parse_steps(text)
            if "".join("F" if s > 0 else "B" for s in steps) != dv:
                return f"{text!r} does not follow {dv}"
            lattice.validate_path(c["L"], 2, tuple(c["start"]), steps)
        return None

    def _enumerate_motzkin(self, c, out):
        items = out["items"]
        want = meander_row(c["A"], c["n"])[c["i"]]
        if out["count"] != len(items) or len(items) != want or len(set(items)) != len(items):
            return f"{len(items)} meanders, want {want} distinct"
        for w in items:
            bad = motzkin_problem(w, c["A"], c["n"], c["i"])
            if bad:
                return f"{w!r}: {bad}"
        return None

    def _profile(self, c, out):
        want = profile(tuple(c["point"]))
        if out["profile"] != want:
            return f"profile {out['profile']} != {want}"
        sizes = [0] * len(want)
        cells = [tuple(x) for x in out["cells"]]
        if len(set(cells)) != len(cells):
            return "repeated cell"
        for f, _ in cells:
            sizes[f] += 1
        return None if sizes == want else f"cell floors {sizes} != {want}"

    # -- map ops ----------------------------------------------------------------

    def _transducer(self, c, out, scaf):
        lattice = self.tw.lattice
        L = c["L"]
        if "word" in c:
            path = lattice.parse_steps(out["path"])
            lattice.validate_path(L, 2, lattice.origin(L), path)
            if min(path, default=1) <= 0:
                return "not a forward walk"
            back = scaf.triangular_to_motzkin(path).steps
            return None if back == c["word"] else "round trip differs"
        word = out["motzkin"]
        bad = motzkin_problem(word, L, len(c["walk"].split()))
        if bad:
            return bad
        if out.get("amplitude", amplitude(word)) != amplitude(word):
            return "wrong amplitude"
        back = lattice.format_steps(scaf.motzkin_to_triangular(word))
        return None if back == c["walk"] else "round trip differs"

    def _map_trapezium_m2t(self, c, out):
        return self._transducer(c, out, self.tw.scaffold2d.TrapeziumScaffolding(c["L"]))

    _map_trapezium_t2m = _map_trapezium_m2t

    def _map_file_m2t(self, c, out):
        return self._transducer(c, out, self.scaffolding(c["file"]))

    _map_file_t2m = _map_file_m2t

    def _map_omega_m2t(self, c, out):
        lattice, omega = self.tw.lattice, self.tw.omega
        L = c["L"]
        path = lattice.parse_steps(out["path"])
        lattice.validate_path(L, 2, lattice.origin(L), path)
        if min(path, default=1) <= 0:
            return "not a forward walk"
        back = omega.forward_to_motzkin_exp(L, path).steps
        return None if back == c["word"] else "round trip differs"

    def _map_omega_t2m(self, c, out):
        lattice, omega = self.tw.lattice, self.tw.omega
        word = out["motzkin"]
        bad = motzkin_problem(word, c["L"], len(c["walk"].split()))
        if bad:
            return bad
        back = lattice.format_steps(omega.motzkin_to_forward_exp(c["L"], word))
        return None if back == c["walk"] else "round trip differs"

    def _bicolored_path(self, c, out):
        lattice = self.tw.lattice
        L, word = c["L"], c["word"]
        path = lattice.parse_steps(out["path"])
        lattice.validate_path(L, 2, lattice.origin(L), path)
        dv = "".join("B" if ch.islower() else "F" for ch in word)
        if "".join("F" if s > 0 else "B" for s in path) != dv:
            return "direction vector does not follow the coloring"
        if out["direction_vector"] != dv:
            return "reported direction vector differs"
        return path

    def _map_bicolored_two(self, c, out):
        path = self._bicolored_path(c, out)
        if isinstance(path, str):
            return path
        # run the table backwards: black letters through delta_inv at z,
        # white ones through delta_inv at the mirror point (x2, x1, x3)
        L = c["L"]
        scaf = self.tw.scaffold2d.TrapeziumScaffolding(L)
        z = (0, 0, L)
        points = []
        for s in path:
            points.append(z)
            v = _TRIANGLE_STEP[abs(s)]
            sign = 1 if s > 0 else -1
            z = (z[0] + sign * v[0], z[1] + sign * v[1], z[2] + sign * v[2])
        cell = (0, 0)
        letters = []
        for s, z in zip(reversed(path), reversed(points)):
            if s > 0:
                cell, ch = scaf.delta_inv(z, s, cell)
                letters.append(ch)
            else:
                cell, ch = scaf.delta_inv((z[1], z[0], z[2]), 4 + s, cell)
                letters.append(ch.lower())
        if cell != (0, 0):
            return "inverse does not end at the corner cell"
        return None if "".join(reversed(letters)) == c["word"] else "round trip differs"

    def _map_bicolored_one(self, c, out):
        path = self._bicolored_path(c, out)
        if isinstance(path, str):
            return path
        # transport back to all-forward, then invert the transducer
        fwd = self.tw.flips.transform(path, "F" * len(path))
        scaf = self.tw.scaffold2d.TrapeziumScaffolding(c["L"])
        back = scaf.triangular_to_motzkin(fwd).steps
        return None if back == c["word"].upper() else "round trip differs"

    def _sample_motzkin(self, c, out):
        return motzkin_problem(out["motzkin"], c["A"], c["n"])

    def _sample_forward(self, c, out):
        lattice = self.tw.lattice
        path = lattice.parse_steps(out["path"])
        if len(path) != c["n"] or min(path, default=1) <= 0:
            return "not a forward walk of the requested length"
        lattice.validate_path(c["L"], 2, lattice.origin(c["L"]), path)
        return None

    def _pyramid_map(self, c, out):
        lattice, pyramid3d = self.tw.lattice, self.tw.pyramid3d
        L, walk = c["L"], c["walk"]
        bad = waffle_problem(walk, L)
        if bad:
            return f"input {bad}"
        path = lattice.parse_steps(out["path"])
        z = lattice.origin(L, 3)
        lattice.validate_path(L, 3, z, path)
        if len(path) != len(walk) or min(path, default=1) <= 0:
            return "not a forward pyramid walk of the input's length"
        back = pyramid3d.pyramid_to_waffle(z, path)
        return None if back == ((0, 0), walk) else "round trip differs"


def _equal(got, want):
    return None if got == str(want) else f"{got} != {want}"
