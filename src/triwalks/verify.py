"""Exhaustive verification suites behind the ``verify`` subcommand.

Each check runs one equality or bijectivity statement over a small grid of
sizes and returns a ``CheckResult``: a name, the number of cases checked,
and the first counterexample when one exists. The acceptance tests drive
the same functions, so the command line and the test suite cannot drift
apart.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time

from . import flips, lattice, motzkin, omega, profiles, pyramid3d, scaffold2d
from .profiles import CheckResult


# -- individual checks --------------------------------------------------------

def check_forward_equals_motzkin(max_L=5, max_n=8):
    """Forward walk counts match bounded Motzkin path counts, three ways."""
    res = CheckResult("forward walks vs bounded Motzkin paths", detail=f"L<={max_L}, n<={max_n}")
    for L in range(max_L + 1):
        for n in range(max_n + 1):
            dp = lattice.count_paths(L, 2, lattice.origin(L), "F" * n)
            brute = len(lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n))
            mz = motzkin.count_paths_by_amplitude(n, L)
            mz_brute = len(motzkin.enumerate_meanders(n, L, 0))
            res.checked += 1
            if not dp == brute == mz == mz_brute:
                return res.fail((L, n, dp, brute, mz, mz_brute))
    return res


def check_bicolored_counts(max_L=4, max_pq=6):
    """Walks with p forward / q backward steps match bicolored Motzkin words."""
    res = CheckResult("bicolored pair counts", detail=f"L<={max_L}, p+q<={max_pq}")
    for L in range(max_L + 1):
        for p in range(max_pq + 1):
            for q in range(max_pq + 1 - p):
                walks = lattice.count_bicolored_pairs(L, p, q)
                words = math.comb(p + q, p) * motzkin.count_paths_by_amplitude(p + q, L)
                res.checked += 1
                if walks != words:
                    return res.fail((L, p, q, walks, words))
    return res


def check_generic_ratio(max_L=4, max_n=8):
    """Generic walks are 2^n times the forward walks, from every start."""
    res = CheckResult("generic = 2^n forward", detail=f"L<={max_L}, n<={max_n}")
    for L in range(max_L + 1):
        pts = lattice.all_points(L, 2)
        for n in range(max_n + 1):
            gs = lattice.generic_table(L, 2, n)
            fs = lattice.count_table(L, 2, "F" * n)
            for z, g, f in zip(pts, gs, fs):
                res.checked += 1
                if g != (1 << n) * f:
                    return res.fail((L, n, z, g, f))
    return res


def check_dv_independence(max_L=4, max_n=6, dims=(2, 3)):
    """Walk counts per direction vector depend only on the length.

    Compares whole tables, so each (d, L, z, dv) case is one entry of the
    table for dv against the same entry of the table for F^n.
    """
    res = CheckResult("counts independent of direction vector",
                      detail=f"d in {dims}, L<={max_L}, n<={max_n}")
    for d in dims:
        for L in range(max_L + 1):
            pts = lattice.all_points(L, d)
            for n in range(max_n + 1):
                ref = lattice.count_table(L, d, "F" * n)
                for dv in itertools.product("FB", repeat=n):
                    dv = "".join(dv)
                    got = lattice.count_table(L, d, dv)
                    for z, a, b in zip(pts, got, ref):
                        res.checked += 1
                        if a != b:
                            return res.fail((d, L, z, dv, a, b))
    return res


def check_transform_bijection(max_L=4, max_n=6, dims=(2, 3), trials=500, seed=7):
    """Transport between direction vector classes is bijective and confluent."""
    res = CheckResult("direction-vector transport bijective and confluent",
                      detail=f"d in {dims}, L<={max_L}, n<={max_n}, {trials} trials")
    rng = random.Random(seed)
    for d in dims:
        for L in range(max_L + 1):
            z = lattice.origin(L, d)
            paths_of = {}  # every dv of 1..max_n letters, read again below
            for n in range(1, max_n + 1):
                for dv in itertools.product("FB", repeat=n):
                    dv = "".join(dv)
                    paths = paths_of[dv] = lattice.enumerate_paths(L, d, z, dv)
                    for target in ("F" * n, "B" * n):
                        images = set()
                        for p in paths:
                            q = flips.transform(p, target, d)
                            lattice.validate_path(L, d, z, q)
                            back = flips.transform(q, dv, d)
                            res.checked += 1
                            if back != p:
                                return res.fail((d, L, dv, target, p), "round trip")
                            images.add(q)
                        if len(images) != len(paths):
                            return res.fail((d, L, dv, target), "not injective")
            # randomized schedules agree with the canonical one; a grid
            # without letters has no schedules to draw
            for _ in range(trials if max_n >= 1 else 0):
                n = rng.randint(1, max_n)
                dv = "".join(rng.choice("FB") for _ in range(n))
                paths = paths_of[dv]
                if not paths:
                    continue
                p = paths[rng.randrange(len(paths))]
                target = "".join(rng.choice("FB") for _ in range(n))
                a = flips.transform(p, target, d)
                b = flips.transform_random(p, target, rng=rng, d=d)
                c = flips.transform_random(p, target, rng=rng, d=d)
                res.checked += 1
                if not a == b == c:
                    return res.fail((d, L, p, target, a, b, c), "confluence")
    return res


def check_algorithm1_involution(max_L=4, max_n=6):
    res = CheckResult("explicit forward/backward involution",
                      detail=f"L<={max_L}, n<={max_n}, all starts")
    for L in range(max_L + 1):
        for n in range(max_n + 1):
            for z in lattice.all_points(L, 2):
                for p in lattice.enumerate_paths(L, 2, z, "F" * n):
                    q = flips.algorithm1(p)
                    res.checked += 1
                    if flips.direction_vector(q) != "B" * n:
                        return res.fail((L, z, p, q), "not backward")
                    if q != flips.transform(p, "B" * n):
                        return res.fail((L, z, p, q), "disagrees with transport")
                    if flips.algorithm1(q) != p:
                        return res.fail((L, z, p, q), "not an involution")
    return res


def check_tiling(max_L=3, max_n=5):
    """Tiling existence, closure in the 9 tiles, symmetry, and readout."""
    res = CheckResult("folded-path tiling", detail=f"L<={max_L}, n<={max_n}")
    pair_tops = set()
    for L in range(1, max_L + 1):
        for n in range(1, max_n + 1):
            for z in (lattice.origin(L), (L - 1, 1, 0)):
                for dv in itertools.product("FB", repeat=n):
                    for p in lattice.enumerate_paths(L, 2, z, "".join(dv)):
                        t = flips.tile(flips.fold(p))
                        for left in t.tiles:
                            a, b = t.top_pair(left)
                            pair_tops.add((a, b))
                            if not (1 <= t.tiles[left] <= 9):
                                return res.fail((p, left), "tile id")
                        # vertical symmetry: mirrored edge carries the negated label
                        for ((x1, y1), (x2, y2)), lab in t.edges.items():
                            if t.edges[((-x2, y2), (-x1, y1))] != -lab:
                                return res.fail((p,), "symmetry")
                        for w in itertools.product("FB", repeat=n):
                            w = "".join(w)
                            res.checked += 1
                            if flips.read_path(t, w) != flips.transform(p, w):
                                return res.fail((p, w), "readout")
    nine = {(j, -k) for j in (1, 2, 3) for k in (1, 2, 3)}
    # grids below L = 2 or n = 3 are too small to show all nine tops
    if not pair_tops <= nine or (max_L >= 2 and max_n >= 3 and pair_tops != nine):
        return res.fail(sorted(pair_tops), "tile tops not the 9 pairs")
    return res


def check_profiles(max_L=8):
    res = CheckResult("profile identities and cell realization", detail=f"L<={max_L}")
    for L in range(1, max_L + 1):
        for rep in (
            profiles.check_profile_identities(L),
            profiles.check_cells_match_profiles(L),
        ):
            res.checked += rep.checked
            if not rep.ok:
                return res.fail(rep.counterexample, rep.name)
    return res


def check_counts_via_profiles(max_L=5, max_n=8):
    res = CheckResult("forward counts from any start via profiles",
                      detail=f"L<={max_L}, n<={max_n}")
    for L in range(1, max_L + 1):
        rep = profiles.check_forward_counts_via_profiles(L, max_n)
        res.checked += rep.checked
        if not rep.ok:
            return res.fail(rep.counterexample, rep.name)
    return res


def check_scaffolding_validity(max_L=7, seeds=range(20)):
    res = CheckResult("scaffolding certificates",
                      detail=f"L<={max_L}, {len(list(seeds))} seeds + trapezium")
    for L in range(max_L + 1):
        for seed in seeds:
            rep = scaffold2d.validate_scaffolding(scaffold2d.RandomScaffolding(L, seed))
            res.checked += rep.checked
            if not rep.ok:
                return res.fail((L, seed, rep.counterexample), "random")
        rep = scaffold2d.validate_scaffolding(scaffold2d.TrapeziumScaffolding(L))
        res.checked += rep.checked
        if not rep.ok:
            return res.fail((L, rep.counterexample), "trapezium")
    return res


def check_transducer_roundtrip(max_L=5, max_n=8, seeds=(0, 1, 2)):
    """Both transducer directions invert each other, for every scaffolding."""
    res = CheckResult("transducer round trips",
                      detail=f"L<={max_L}, n<={max_n}, trapezium + {len(seeds)} seeds")
    for L in range(max_L + 1):
        scafs = [scaffold2d.TrapeziumScaffolding(L)] + [
            scaffold2d.RandomScaffolding(L, s) for s in seeds
        ]
        for n in range(max_n + 1):
            words = motzkin.enumerate_meanders(n, L, 0)
            paths = lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n)
            for scaf in scafs:
                seen = set()
                for w in words:
                    before = scaf.lookup_count
                    p = scaf.motzkin_to_triangular(w)
                    if scaf.lookup_count - before != n:
                        return res.fail((L, n, w.steps), "lookup count")
                    lattice.validate_path(L, 2, lattice.origin(L), p)
                    seen.add(p)
                    back = scaf.triangular_to_motzkin(p)
                    res.checked += 1
                    if back.steps != w.steps:
                        return res.fail((L, n, w.steps, p, back.steps), "round trip")
                if seen != set(paths):
                    return res.fail((L, n), "image is not all forward walks")
    return res


def check_prefix_property(max_L=4, max_n=6):
    """Sharing a prefix of letters forces sharing a prefix of steps."""
    res = CheckResult("prefixes map to prefixes", detail=f"trapezium, L<={max_L}, n<={max_n}")
    for L in range(max_L + 1):
        scaf = scaffold2d.TrapeziumScaffolding(L)
        for n in range(1, max_n + 1):
            words = motzkin.enumerate_meanders(n, L, 0)
            image = {w.steps: scaf.motzkin_to_triangular(w) for w in words}
            for a, b in itertools.combinations(words, 2):
                common = 0
                for x, y in zip(a.steps, b.steps):
                    if x != y:
                        break
                    common += 1
                res.checked += 1
                if image[a.steps][:common] != image[b.steps][:common]:
                    return res.fail((L, a.steps, b.steps))
    return res


def check_trapezium(max_L=7, n_random=1000, max_len=40, seed=11):
    """Case conditions, size independence, and minimal-triangle property."""
    res = CheckResult("canonical scaffolding case conditions",
                      detail=f"L<={max_L} pointwise, {n_random} random words")
    # case-image conditions, pointwise
    for L in range(max_L + 1):
        big = scaffold2d.TrapeziumScaffolding(L + 4)
        for z in lattice.all_points(L, 2):
            x1, x2, _ = z
            for cell in profiles.cell_representation(z):
                for ch in motzkin.allowed_steps(cell[0], L):
                    j, (f2, l2), case = scaffold2d.trapezium_rule(
                        x1, x2, cell[0], cell[1], ch
                    )
                    res.checked += 1
                    ok = {
                        1: j == 2 and (f2, l2) == (x1, x2) and x2 <= x1 - 1,
                        2: j == 1 and l2 == 1 + x1 + x2 - f2 and l2 != 0,
                        3: j == 1 and l2 == 0 and f2 == x1 + x2 + 1,
                        4: j == 2 and l2 == x1 + x2 - f2 and l2 <= x2 - 1,
                        5: j == 2 and l2 == x2 + 1,
                        6: j == 3 and l2 <= f2 - 1,
                        7: j == 2 and l2 == f2 and l2 <= x2 - 1,
                        8: j == 1 and l2 <= x1 and l2 < x1 + x2 - f2,
                        9: j == 1 and l2 <= x1 and l2 == x1 + x2 - f2,
                        10: j == 2
                        and (
                            l2 <= min(x1 + x2 - f2 - 1, x2, f2 - 1)
                            or (l2 == f2 == x2 and x2 <= x1 - 1)
                        ),
                        11: j == 1 and l2 == x1 + 1 and l2 <= x1 + x2 - f2,
                        12: j == 3 and l2 == f2,
                    }[case]
                    if not ok:
                        return res.fail((L, z, cell, ch, case, (j, f2, l2)), "case")
                    # the same (x1, x2, cell, step) in a bigger triangle
                    # must produce the same output whenever still defined
                    z_big = (x1, x2, z[2] + 4)
                    if ch in motzkin.allowed_steps(cell[0], L + 4):
                        if big.delta(z_big, cell, ch) != (j, (f2, l2)):
                            return res.fail((L, z, cell, ch), "size dependence")
    # amplitude equals the side of the smallest triangle containing the image
    rng = random.Random(seed)
    for _ in range(n_random):
        n = rng.randint(1, max_len)
        word = motzkin.uniform_sample(n, 2 * n + 1, rng=rng)  # unbounded in effect
        amp = motzkin.amplitude(word)
        scaf = scaffold2d.TrapeziumScaffolding(amp)
        p = scaf.motzkin_to_triangular(word)
        pts = lattice.validate_path(amp, 2, lattice.origin(amp), p)
        side = max(pt[0] + pt[1] for pt in pts)
        res.checked += 1
        if side != amp:
            return res.fail((word.steps, amp, side), "minimal triangle")
    return res


def check_omega(max_L=5, max_n=7):
    """The recursive map is a bijection onto meanders plus lowered walks."""
    res = CheckResult("recursive bijection", detail=f"L<={max_L}, n<={max_n}, all k")
    for L in range(max_L + 1):
        H = L // 2
        for n in range(max_n + 1):
            for k in range(H + 1):
                walks = lattice.enumerate_paths(L, 2, omega.edge_point(L, k), "F" * n)
                meanders = {w.steps for w in motzkin.enumerate_meanders(n, L, k)}
                lowered = (
                    set(lattice.enumerate_paths(L, 2, omega.edge_point(L, k - 1), "F" * n))
                    if k >= 1
                    else set()
                )
                got_m, got_g = set(), set()
                for p in walks:
                    img = omega.omega(L, k, p)
                    back = omega.omega_inverse(L, k, img)
                    res.checked += 1
                    if back != p:
                        return res.fail((L, n, k, p), "round trip")
                    if img.is_meander:
                        got_m.add(img.meander.steps)
                    else:
                        got_g.add(img.path)
                if got_m != meanders or got_g != lowered:
                    return res.fail((L, n, k), "image mismatch")
                if len(meanders) != len(walks) - len(lowered):
                    return res.fail((L, n, k), "count identity")
    return res


def check_pyramid_waffle(max_L=4, max_n=7):
    """The count identity w = p(i,j) - p(i-1,j-1) and the signed symmetry.

    The waffle side is ``count_waffle_walks``, the Lindstrom-Gessel-Viennot
    determinant of two 1-D walkers. The pyramid side is the DP
    ``count_pyramid_paths``, never the served ``forward_count``, which sums
    the same determinant and would check the identity against itself. So
    the identity pits the determinant against the pyramid DP, and the signed
    array, a ``lattice.sweep`` of the 2-D waffle gathers, pits it against a
    2-D sweep where i + j <= L. The test suite compares ``count_waffle_walks``
    with a 2-D sweep and with ``enumerate_waffle_walks``, which moves with
    ``in_waffle``.
    """
    res = CheckResult("pyramid/waffle count identity", detail=f"L<={max_L}, n<={max_n}")
    for L in range(max_L + 1):
        for i, j in pyramid3d.waffle_points(L):
            for n in range(max_n + 1):
                w = pyramid3d.count_waffle_walks(L, n, (i, j))
                p = pyramid3d.count_pyramid_paths(L, n, pyramid3d.paired_start_point(L, i, j))
                p2 = (
                    pyramid3d.count_pyramid_paths(
                        L, n, pyramid3d.paired_start_point(L, i - 1, j - 1)
                    )
                    if j >= 1
                    else 0
                )
                res.checked += 1
                if w != p - p2:
                    return res.fail((L, n, i, j, w, p, p2), "count identity")
        arrays = pyramid3d.signed_waffle_array(L, max_n)
        for n, arr in enumerate(arrays):
            for (i, j), v in arr.items():
                res.checked += 1
                if v != -arr.get((L + 1 - j, L + 1 - i), 0):
                    return res.fail((L, n, i, j), "signed symmetry")
                if i + j <= L and j <= i and v != pyramid3d.count_waffle_walks(L, n, (i, j)):
                    return res.fail((L, n, i, j), "signed vs confined")
    return res


def check_scaffolding3d(max_L=5):
    res = CheckResult("3d scaffolding certificates", detail=f"L<={max_L}")
    for L in range(max_L + 1):
        rep = pyramid3d.validate_scaffolding3d(L)
        res.checked += rep.checked
        if not rep.ok:
            return res.fail((L, rep.counterexample))
    return res


def check_waffle_bijection(max_L=3, max_n=5):
    res = CheckResult("waffle-to-pyramid bijection",
                      detail=f"L<={max_L}, n<={max_n}, all base points")
    for L in range(max_L + 1):
        for z_c in pyramid3d.pyramid_points(L):
            for n in range(max_n + 1):
                images = []
                for cell in pyramid3d.profile3d(z_c):
                    start = pyramid3d.anchor(z_c, cell)
                    for w in pyramid3d.enumerate_waffle_walks(L, start, n):
                        p = pyramid3d.waffle_to_pyramid(z_c, cell, w)
                        back = pyramid3d.pyramid_to_waffle(z_c, p)
                        res.checked += 1
                        if back != (cell, w):
                            return res.fail((L, z_c, cell, w, p), "round trip")
                        images.append(p)
                want = pyramid3d.enumerate_pyramid_paths(L, z_c, n)
                if sorted(images) != sorted(want):
                    return res.fail((L, z_c, n), "image mismatch")
    return res


def check_gf(max_L=4, max_n=12):
    res = CheckResult("closed form vs dynamic programming vs reflection",
                      detail=f"L<={max_L}, n<={max_n}")
    for L in range(max_L + 1):
        coeffs = pyramid3d.pyramid_gf_coefficients(L, max_n)
        for n in range(max_n + 1):
            dp = pyramid3d.count_pyramid_paths(L, n, lattice.origin(L, 3))
            refl = pyramid3d.corner_count_by_reflection(L, n)
            res.checked += 1
            if not coeffs[n] == dp == refl:
                return res.fail((L, n, coeffs[n], dp, refl))
    return res


def check_reflection_pointwise(max_L=4, max_n=10):
    res = CheckResult("reflection principle pointwise",
                      detail=f"L<={max_L}, n<={max_n}, all starts")
    for L in range(max_L + 1):
        for start in pyramid3d.waffle_points(L):
            for n in range(max_n + 1):
                a = pyramid3d.reflection_count(L, n, start)
                b = pyramid3d.count_waffle_walks_to(L, n, start)
                res.checked += 1
                if a != b:
                    return res.fail((L, n, start, a, b))
    return res


CHI2_999 = {
    1: 10.828,
    2: 13.816,
    3: 16.266,
    4: 18.467,
    5: 20.515,
    6: 22.458,
    7: 24.322,
    8: 26.124,
    9: 27.877,
}


def _chi_square_uniform(observed, total, classes):
    expected = total / classes
    return sum((o - expected) ** 2 / expected for o in observed)


def check_sampling(L=3, n=4, draws=8000, seed=5):
    """Chi-square uniformity of both samplers at 0.999 significance."""
    res = CheckResult("sampler uniformity", detail=f"L={L}, n={n}, {draws} draws each")
    rng = random.Random(seed)
    words = [w.steps for w in motzkin.enumerate_meanders(n, L, 0)]
    counts = {w: 0 for w in words}
    for _ in range(draws):
        counts[motzkin.uniform_sample(n, L, rng=rng).steps] += 1
    stat = _chi_square_uniform(list(counts.values()), draws, len(words))
    res.checked += 1
    if stat >= CHI2_999[len(words) - 1]:
        return res.fail(("motzkin sampler", stat))
    paths = lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n)
    counts = {p: 0 for p in paths}
    for _ in range(draws):
        counts[scaffold2d.sample_forward_path(L, n, rng=rng)] += 1
    stat = _chi_square_uniform(list(counts.values()), draws, len(paths))
    res.checked += 1
    if stat >= CHI2_999[len(paths) - 1]:
        return res.fail(("forward sampler", stat))
    return res


SUITES = {
    "flips": [
        check_dv_independence,
        check_transform_bijection,
        check_algorithm1_involution,
        check_tiling,
    ],
    "profiles": [check_profiles, check_counts_via_profiles],
    "scaffold": [
        check_scaffolding_validity,
        check_transducer_roundtrip,
        check_prefix_property,
        check_trapezium,
        check_sampling,
    ],
    "omega": [check_omega],
    "pyramid": [
        check_pyramid_waffle,
        check_scaffolding3d,
        check_waffle_bijection,
        check_gf,
        check_reflection_pointwise,
    ],
    "counts": [
        check_forward_equals_motzkin,
        check_bicolored_counts,
        check_generic_ratio,
    ],
}


def run_suite(suite="all", max_L=None, max_n=None):
    """Run one named suite (or all of them) and return timed CheckResults.

    ``max_L``/``max_n`` shrink the default grids uniformly when given;
    checks whose signature lacks the parameter ignore it.
    """
    for name, v in (("max_L", max_L), ("max_n", max_n)):
        if v is not None and v < 0:
            raise ValueError(f"need {name} >= 0, got {name}={v}")
    names = sorted(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        for fn in SUITES[name]:
            params = inspect.signature(fn).parameters
            kwargs = {k: v for k, v in (("max_L", max_L), ("max_n", max_n))
                      if v is not None and k in params}
            t0 = time.perf_counter()
            res = fn(**kwargs)
            res.seconds = time.perf_counter() - t0
            results.append(res)
    return results
