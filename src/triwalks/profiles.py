"""Profiles of triangle points and their cell representations.

The profile of a point z = (x1, x2, x3) with x1 + x2 + x3 = L is the vector
(p_0, ..., p_H), H = floor(L/2), of the first coefficients of

    (1 - x^(x1+1)) (1 - x^(x2+1)) (1 - x^(x3+1)) / (1 - x)^2.

Points one step outside the triangle (some coordinate equal to -1) get the
null profile, which makes the border recurrences uniform.

The closed-form cell representation realizes p_f as the number of lattice
cells (f, l) with max(0, f - x3) <= l <= min(f, x1, x2, x1 + x2 - f); cells
are 0-indexed and the height of (f, l) is f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .errors import NotAllowed
from .lattice import all_points, check_start, count_table, forward_neighbours, move
from .motzkin import meander_count_table, meander_row


def point_polynomial(z):
    """Coefficients of the defining polynomial, degree L + 1 exactly.

    Computed as (1 + x + ... + x^{x1}) (1 + x + ... + x^{x2}) (1 - x^{x3+1}),
    which keeps everything in integers. Any coordinate equal to -1 kills a
    factor and gives the zero polynomial.
    """
    x1, x2, x3 = z
    if min(z) < -1:
        raise ValueError(f"profile undefined for {z}")
    L = x1 + x2 + x3
    if min(z) == -1:
        return [0] * (L + 2)
    a = [1] * (x1 + 1)
    b = [1] * (x2 + 1)
    prod = [0] * (x1 + x2 + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    out = [0] * (L + 2)
    for i, c in enumerate(prod):
        out[i] += c
        out[i + x3 + 1] -= c
    return out


def profile(z):
    """The vector (p_0, ..., p_H) of the point z."""
    H = sum(z) // 2
    poly = point_polynomial(z)
    return tuple(poly[: H + 1])


def forward_count(L, start, n):
    """Length-n forward walks from ``start``: f_n(z) = sum_i p_i(z) * M_n(i).

    M_n(i) counts the meanders of amplitude at most L from height i. By
    direction-vector independence this is also the number of walks with any
    direction vector of length n. It costs one ``meander_row``, one call of
    ``lattice.tridiagonal_power``; ``lattice.count_paths`` is its oracle.
    """
    z = check_start(L, 2, start)
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return sum(map(mul, profile(z), meander_row(L, n)))


def cell_representation(z):
    """All cells of z from the closed form, sorted by (height, index)."""
    return [c for f in range(sum(z) // 2 + 1) for c in cells_at_height(z, f)]


def cell_bounds(z, f):
    """The range lo..hi of indices l of the cells (f, l) of z; empty if lo > hi."""
    x1, x2, x3 = z
    return max(0, f - x3), min(f, x1, x2, x1 + x2 - f)


def cells_at_height(z, f):
    lo, hi = cell_bounds(z, f)
    return [(f, l) for l in range(lo, hi + 1)]


def floor_sizes(cells, H):
    sizes = [0] * (H + 1)
    for f, _ in cells:
        sizes[f] += 1
    return tuple(sizes)


@dataclass
class CheckResult:
    """Outcome of a check: a name, the cases examined and the violations found.

    The certificates in this package collect every violation; the checks in
    ``verify`` stop at the first one. ``seconds`` is set by ``verify.run_suite``.
    """

    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    detail: str = ""
    seconds: float | None = None

    @property
    def ok(self):
        return not self.violations

    @property
    def counterexample(self):
        """The first violation, or None."""
        return self.violations[0] if self.violations else None

    def fail(self, counterexample, detail=""):
        """Record the counterexample that stops a check; ``detail`` gives the reason."""
        self.violations.append(counterexample)
        self.detail = detail
        return self

    def summary(self):
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"{self.name}: {self.checked} checks, {state}"

    def to_json(self):
        doc = {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "detail": self.detail,
        }
        if self.violations:
            doc["counterexample"] = repr(self.counterexample)
        return doc


def certify(name, L, d, cells, letters, delta, delta_inv, rule):
    """Certify a scaffolding at every point z of the lattice of side L in
    dimension d: ``delta`` must send each (cell, letter) of A(z), the cells(z)
    with their letters(z, cell), to its own target (j, c'), c' in cells(z + s_j),
    where ``rule(z, cell, letter, j, c')`` holds and ``delta_inv`` gives it
    back, and must reach every target. A NotAllowed lookup is a domain hole."""
    rep = CheckResult(name)
    for z in all_points(L, d):
        targets = {(j, c) for j, w in forward_neighbours(z).items() if min(w) >= 0
                   for c in cells(w)}
        seen = {}
        for cell in cells(z):
            for s in letters(z, cell):
                rep.checked += 1
                try:
                    j, cell2 = delta(z, cell, s)
                except NotAllowed:
                    rep.violations.append((z, cell, s, "domain hole"))
                    continue
                if not rule(z, cell, s, j, cell2):
                    rep.violations.append((z, cell, s, "rule"))
                if (j, cell2) not in targets:
                    rep.violations.append((z, cell, s, f"target {(j, cell2)} missing"))
                elif (j, cell2) in seen:
                    rep.violations.append((z, cell, s, f"collides with {seen[(j, cell2)]}"))
                else:
                    seen[(j, cell2)] = (cell, s)
                try:
                    back = delta_inv(z, j, cell2)
                except NotAllowed:
                    back = None
                if back != (cell, s):
                    rep.violations.append((z, cell, s, "inverse"))
        if len(seen) != len(targets):
            rep.violations.append((z, "unreached targets", sorted(targets - set(seen))[:3]))
    return rep


def check_profile_identities(L):
    """Verify the three-term profile identities at every point of the triangle.

    For each z and each coefficient index i, the sum of p_i over the three
    forward neighbours of z must telescope to neighbouring coefficients of
    z: p_{i-1} + p_i + p_{i+1} in the interior, p_0 + p_1 at i = 0, and at
    i = H either p_{H-1} + p_H (L odd) or p_{H-1} alone (L even). The proof
    rests on x^{L+1} Pol(1/x) = -Pol(x), i.e. p_{L+1-j} = -p_j, which is
    checked here as well.
    """
    rep = CheckResult(f"profile identities, L={L}")
    H = L // 2
    for z in all_points(L, 2):
        polys = []
        for j in (1, 2, 3):
            w = move(z, j)
            polys.append(point_polynomial(w) if min(w) >= 0 else [0] * (L + 2))
        sums = [sum(q[i] for q in polys) for i in range(L + 2)]
        p = point_polynomial(z)

        def coeff(i):
            return p[i] if 0 <= i <= L + 1 else 0

        for i in range(H + 1):
            if i == 0:
                want = coeff(0) + coeff(1)
            elif i < H:
                want = coeff(i - 1) + coeff(i) + coeff(i + 1)
            elif L % 2 == 1:
                want = coeff(H - 1) + coeff(H)
            else:
                want = coeff(H - 1)
            rep.checked += 1
            if sums[i] != want:
                rep.violations.append((z, i, sums[i], want))
        for j in range(L + 2):
            rep.checked += 1
            if p[L + 1 - j] != -p[j]:
                rep.violations.append((z, ("antisymmetry", j)))
    return rep


def check_cells_match_profiles(L):
    """Floor sizes of the closed-form cells must equal the profile, everywhere."""
    rep = CheckResult(f"cells realize profiles, L={L}")
    H = L // 2
    for z in all_points(L, 2):
        rep.checked += 1
        if floor_sizes(cell_representation(z), H) != profile(z):
            rep.violations.append(z)
    return rep


def check_forward_counts_via_profiles(L, n_max):
    """Forward-path counts from any point versus the profile/meander sum.

    f_n(z) must equal sum_i p_i(z) * M_n(i) for every z and every n up to
    n_max, where M_n(i) counts meanders of amplitude at most L from height i.
    """
    rep = CheckResult(f"forward counts via profiles, L={L}, n<={n_max}")
    table = meander_count_table(L, n_max)
    pts = all_points(L, 2)
    profs = [profile(z) for z in pts]
    for n in range(n_max + 1):
        for z, pr, lhs in zip(pts, profs, count_table(L, 2, "F" * n)):
            rhs = sum(pi * mi for pi, mi in zip(pr, table[n]))
            rep.checked += 1
            if lhs != rhs:
                rep.violations.append((z, n, lhs, rhs))
    return rep
