import json
import os
import pathlib
import subprocess
import sys

import pytest

from triwalks import lattice, pyramid3d
from triwalks.errors import InvalidWalk, NotAllowed, OutOfLattice, OutsideWaffle

GOLDEN = pathlib.Path(__file__).parent / "golden"


def brute_pyramid(L, start, n):
    return pyramid3d.enumerate_pyramid_paths(L, start, n)


# -- the list pairing that the 2x2-block closed form replaced, kept as its
# oracle: list the inputs aimed at the target anchor and the usable exits,
# and pair them in the orders N < E < S < W and s_1 < s_2 < s_3 < s_4

def anchor_cell(z, pt):
    """The cell of z anchored at ``pt``, or None."""
    di = pt[0] - z[0] - z[2]
    if (di + pt[1]) % 2:
        return None
    cell = ((di + pt[1]) // 2, (pt[1] - di) // 2)
    return cell if pyramid3d._has_cell(z, cell) else None


def local_lists(z, target):
    """Incoming (step, cell) pairs aimed at ``target`` and usable exits."""
    ins = []
    for s in pyramid3d.CARDINAL_ORDER:
        d = pyramid3d.CARDINAL[s]
        c = anchor_cell(z, (target[0] - d[0], target[1] - d[1]))
        if c is not None:
            ins.append((s, c))
    outs = []
    for j, w in lattice.forward_neighbours(z).items():
        if min(w) >= 0:
            c = anchor_cell(w, target)
            if c is not None:
                outs.append((j, c))
    return ins, outs


def list_delta(z, cell, step):
    L = sum(z)
    if not pyramid3d._has_cell(z, cell):
        raise NotAllowed(f"cell {cell} not in C({z})")
    a = pyramid3d.anchor(z, cell)
    d = pyramid3d.CARDINAL[step]
    target = (a[0] + d[0], a[1] + d[1])
    if not pyramid3d.in_waffle(target, L):
        raise NotAllowed(f"step {step} leaves the waffle from {a}")
    ins, outs = local_lists(z, target)
    assert len(ins) == len(outs)
    return outs[ins.index((step, cell))]


def list_delta_inv(z, j, cell):
    target = pyramid3d.anchor(lattice.move(z, j), cell)
    ins, outs = local_lists(z, target)
    if (j, cell) not in outs:
        raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")
    s, c = ins[outs.index((j, cell))]
    return c, s


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (NotAllowed, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_waffle_membership():
    assert pyramid3d.in_waffle((0, 0), 4)
    assert pyramid3d.in_waffle((2, 2), 4)
    assert not pyramid3d.in_waffle((1, 2), 4)   # j > i
    assert not pyramid3d.in_waffle((3, 2), 4)   # i > L - j
    assert pyramid3d.waffle_points(2) == [(0, 0), (1, 0), (1, 1), (2, 0)]


def test_pyramid_count_basics():
    O = lattice.origin(2, 3)
    assert pyramid3d.count_pyramid_paths(2, 0, O) == 1
    # side 1: the single forward walk cycles through the four corners
    assert [pyramid3d.count_pyramid_paths(1, n, lattice.origin(1, 3)) for n in range(6)] == [1] * 6


def test_forward_equals_backward():
    for L in range(4):
        for z in pyramid3d.pyramid_points(L):
            for n in range(6):
                f = pyramid3d.count_pyramid_paths(L, n, z, "F")
                b = pyramid3d.count_pyramid_paths(L, n, z, "B")
                assert f == b


def test_corner_sequence_golden_and_oracle():
    # frozen from the enumeration oracle
    want = [1, 1, 2, 3, 6, 9, 18, 27, 54]
    O = lattice.origin(2, 3)
    got = [pyramid3d.count_pyramid_paths(2, n, O) for n in range(9)]
    assert got == want
    for n in range(7):
        assert len(brute_pyramid(2, O, n)) == want[n]


def test_waffle_walk_counts():
    # length 0 counts 1 exactly on the axis
    for L in range(4):
        for i, j in pyramid3d.waffle_points(L):
            assert pyramid3d.count_waffle_walks(L, 0, (i, j)) == (1 if j == 0 else 0)
    with pytest.raises(OutsideWaffle):
        pyramid3d.count_waffle_walks(3, 1, (0, 1))
    with pytest.raises(OutsideWaffle):
        pyramid3d.enumerate_waffle_walks(4, (3, 2), 2)
    # DP equals the enumeration oracle
    for L in range(3):
        for start in pyramid3d.waffle_points(L):
            for n in range(6):
                assert pyramid3d.count_waffle_walks(L, n, start) == len(
                    pyramid3d.enumerate_waffle_walks(L, start, n)
                )


def test_count_identity_with_pyramid():
    for L in range(4):
        for n in range(7):
            for i, j in pyramid3d.waffle_points(L):
                w = pyramid3d.count_waffle_walks(L, n, (i, j))
                p = pyramid3d.count_pyramid_paths(L, n, pyramid3d.paired_start_point(L, i, j))
                if j >= 1 and i >= 1 and i - j >= 0:
                    p2 = pyramid3d.count_pyramid_paths(
                        L, n, pyramid3d.paired_start_point(L, i - 1, j - 1)
                    )
                else:
                    p2 = 0
                assert w == p - p2
    # the corner case quoted everywhere: counts agree outright
    for L in range(4):
        for n in range(7):
            assert pyramid3d.count_waffle_walks(L, n, (0, 0)) == pyramid3d.count_pyramid_paths(
                L, n, lattice.origin(L, 3)
            )
    assert pyramid3d.count_waffle_walks(30, 400, (0, 0)) == pyramid3d.count_pyramid_paths(
        30, 400, lattice.origin(30, 3)
    )


def test_signed_array_symmetry_and_agreement():
    for L in range(4):
        arrays = pyramid3d.signed_waffle_array(L, 6)
        for n, arr in enumerate(arrays):
            for (i, j), v in arr.items():
                assert v == -arr.get((L + 1 - j, L + 1 - i), 0)
                if i + j == L + 1:
                    assert v == 0
                if i + j <= L:
                    assert v == pyramid3d.count_waffle_walks(L, n, (i, j))


def test_profile3d_and_anchor():
    z = (4, 1, 3, 4)
    cells = pyramid3d.profile3d(z)
    assert len(cells) == (min(1, 4) + 1) * (min(4, 3) + 1) == 8
    region = pyramid3d.anchored_region(z)
    assert len(set(region)) == 8
    L = sum(z)
    assert all(pyramid3d.in_waffle(pt, L) for pt in region)
    for c in cells:
        assert anchor_cell(z, pyramid3d.anchor(z, c)) == c
    # corner: the single cell anchors at the origin
    corner = (0, 0, 0, 5)
    assert pyramid3d.profile3d(corner) == [(0, 0)]
    assert pyramid3d.anchor(corner, (0, 0)) == (0, 0)


def test_profile3d_cardinality_matches_walk_counts():
    # walks from anywhere equal axis-ending waffle walks started across the
    # anchored region
    for L in range(3):
        for z in pyramid3d.pyramid_points(L):
            for n in range(5):
                total = sum(
                    pyramid3d.count_waffle_walks(L, n, pt)
                    for pt in pyramid3d.anchored_region(z)
                )
                assert total == pyramid3d.count_pyramid_paths(L, n, z)


def test_scaffolding3d_certificate():
    for L in range(5):
        rep = pyramid3d.validate_scaffolding3d(L)
        assert rep.ok, rep.violations[:3]


def test_scaffolding3d_certificate_reports_a_domain_hole(monkeypatch):
    closed_form = pyramid3d.diamond_delta
    z, cell = (1, 1, 1, 1), (0, 0)

    def diamond_delta(w, c, s):  # refuses one entry of its own domain
        if (w, c, s) == (z, cell, "N"):
            raise NotAllowed("hole")
        return closed_form(w, c, s)

    monkeypatch.setattr(pyramid3d, "diamond_delta", diamond_delta)
    rep = pyramid3d.validate_scaffolding3d(4)
    # the hole, and the one target that its entry should have reached
    assert rep.violations[0] == (z, cell, "N", "domain hole")
    assert [v[:2] for v in rep.violations[1:]] == [(z, "unreached targets")]


def test_diamond_delta_rejects_bad_input():
    with pytest.raises(NotAllowed):
        pyramid3d.diamond_delta((0, 0, 0, 3), (1, 1), "N")
    with pytest.raises(NotAllowed):
        pyramid3d.diamond_delta((0, 0, 0, 3), (0, 0), "S")


def test_closed_form_equals_the_list_pairing():
    # every pyramid point up to L = 10, every cell in a box one wider than
    # C(z) and C(z + s_j), every letter and forward step, errors included;
    # a backward step has no preimage whatever the cell
    forward = inverse = 0
    for L in range(11):
        for z in pyramid3d.pyramid_points(L):
            x1, x2, x3, x4 = z
            for p in range(-1, min(x2, x4) + 3):
                for q in range(-1, min(x1, x3) + 3):
                    cell = (p, q)
                    for s in pyramid3d.CARDINAL_ORDER:
                        forward += 1
                        assert outcome(pyramid3d.diamond_delta, z, cell, s) == (
                            outcome(list_delta, z, cell, s)), (z, cell, s)
                    for j in (1, 2, 3, 4):
                        inverse += 1
                        assert outcome(pyramid3d.diamond_delta_inv, z, j, cell) == (
                            outcome(list_delta_inv, z, j, cell)), (z, j, cell)
            for j in (-1, -2, -3, -4):
                assert outcome(pyramid3d.diamond_delta_inv, z, j, (0, 0)) == (
                    outcome(list_delta_inv, z, j, (0, 0)))
    assert forward == inverse == 90_972
    for bad in ((), (0, 0, 0)):
        assert outcome(pyramid3d.diamond_delta, (1, 1, 1, 1), bad, "N") == (
            outcome(list_delta, (1, 1, 1, 1), bad, "N"))


def test_waffle_to_pyramid_round_trip_small():
    for L in range(3):
        for z in pyramid3d.pyramid_points(L):
            for n in range(5):
                seen = []
                for cell in pyramid3d.profile3d(z):
                    start = pyramid3d.anchor(z, cell)
                    for w in pyramid3d.enumerate_waffle_walks(L, start, n):
                        p = pyramid3d.waffle_to_pyramid(z, cell, w)
                        assert len(p) == n
                        assert pyramid3d.pyramid_to_waffle(z, p) == (cell, w)
                        seen.append(p)
                assert sorted(seen) == sorted(brute_pyramid(L, z, n))


def test_cell_membership_by_bounds_matches_the_cell_list():
    # every point up to L = 4, cells in a box one wider than C(z), and cells
    # of the wrong length, which lie in no C(z)
    for L in range(5):
        for z in pyramid3d.pyramid_points(L):
            cells = set(pyramid3d.profile3d(z))
            for p in range(-1, L + 2):
                for q in range(-1, L + 2):
                    assert pyramid3d._has_cell(z, (p, q)) == ((p, q) in cells)
            for bad in ((), (0,), (0, 0, 0)):
                assert not pyramid3d._has_cell(z, bad)
                with pytest.raises(NotAllowed, match=r"not in C\("):
                    pyramid3d.diamond_delta(z, bad, "N")


def test_waffle_to_pyramid_errors():
    with pytest.raises(InvalidWalk, match=r"cell \(0, 0, 0\) not in C\(\(0, 0, 0, 3\)\)"):
        pyramid3d.waffle_to_pyramid((0, 0, 0, 3), (0, 0, 0), "N")
    with pytest.raises(InvalidWalk):
        pyramid3d.waffle_to_pyramid((0, 0, 0, 2), (1, 1), "N")
    with pytest.raises(InvalidWalk):
        pyramid3d.waffle_to_pyramid((0, 0, 0, 2), (0, 0), "S")
    assert pyramid3d.waffle_to_pyramid((0, 0, 0, 2), (0, 0), "") == ()
    # a letter other than N, E, S, W is refused by the lookup itself
    for letter in ("X", ["N"]):
        with pytest.raises(NotAllowed) as exc:
            pyramid3d.diamond_delta((1, 1, 1, 1), (0, 0), letter)
        assert str(exc.value) == f"bad letter {letter!r}"
    with pytest.raises(InvalidWalk, match="^bad letter 'X'$"):
        pyramid3d.waffle_to_pyramid((1, 1, 1, 1), (0, 0), "EX")
    # a start of too few or too many coordinates is named, as pyramid_to_waffle names it
    for start in ((0, 0, 0), (0, 0, 0, 0, 1), (0, -1, 0, 2)):
        with pytest.raises(InvalidWalk) as exc:
            pyramid3d.waffle_to_pyramid(start, (0, 0), "N")
        assert str(exc.value) == f"start {start} is not a pyramid point"


def test_waffle_to_pyramid_rejects_walks_ending_off_the_axis():
    # such walks are outside the bijection's domain: "EN" would share the
    # image of "EW"
    assert pyramid3d.waffle_to_pyramid((0, 0, 0, 4), (0, 0), "EW") == (1, 2)
    for z, cell, walk in (((0, 0, 0, 4), (0, 0), "EN"), ((0, 0, 0, 4), (0, 0), "EENW"),
                          ((1, 1, 1, 1), (0, 1), ""), ((1, 1, 1, 1), (1, 0), "WE")):
        with pytest.raises(InvalidWalk, match="off the axis"):
            pyramid3d.waffle_to_pyramid(z, cell, walk)


# -- pyramid counts served by the waffle cell sum ------------------------------

def test_cell_sum_equals_the_dp_at_every_point():
    # count_pyramid_paths reads this table at the start's index; backward
    # walks count like forward ones
    for L in range(9):
        pts = pyramid3d.pyramid_points(L)
        for n in range(11):
            for o in "FB":
                table = lattice.count_table(L, 3, o * n)
                assert [pyramid3d.forward_count(L, z, n) for z in pts] == table, (L, n, o)


def test_cell_sum_equals_the_dp_past_the_grid():
    z = (7, 8, 9, 6)
    assert pyramid3d.forward_count(30, z, 400) == pyramid3d.count_pyramid_paths(30, 400, z)
    L, n = 12, 40
    table = lattice.count_table(L, 3, "F" * n)
    assert [pyramid3d.forward_count(L, z, n) for z in pyramid3d.pyramid_points(L)] == table


def test_corner_counts_three_ways():
    # DP, cell sum and the closed-form generating function at L = 10
    L, N = 10, 100
    corner = lattice.origin(L, 3)
    gf = pyramid3d.pyramid_gf_coefficients(L, N)
    for n in range(N + 1):
        dp = pyramid3d.count_pyramid_paths(L, n, corner)
        assert dp == pyramid3d.forward_count(L, corner, n) == gf[n], n


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda f: f(2, (0, 0, 0, 5), 1), OutOfLattice),
        (lambda f: f(2, (0, 0, 2), 1), OutOfLattice),
        (lambda f: f(-1, (0, 0, 0, -1), 1), OutOfLattice),
        (lambda f: f(2, (1, 0, 0, 1, 0), 1), OutOfLattice),
        (lambda f: f(2, (-1, 0, 0, 3), 1), OutOfLattice),
        (lambda f: f(2, (0, 0, 0, 2), -1), ValueError),
    ],
)
def test_cell_sum_raises_the_errors_of_the_dp(call, error):
    def dp(L, z, n):
        return pyramid3d.count_pyramid_paths(L, n, z)

    messages = []
    for count in (pyramid3d.forward_count, dp):
        with pytest.raises(error) as info:
            call(count)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_the_dp_oracles_never_read_the_cell_sum():
    # run each DP, reflection and GF oracle under sys.setprofile: no served
    # count may be reached; the served counts themselves reach every one
    import sys

    served = {pyramid3d.forward_count.__code__, pyramid3d.count_waffle_walks.__code__,
              pyramid3d.count_waffle_walks_to.__code__, pyramid3d._walker_pairs.__code__,
              pyramid3d.corner_counts.__code__}
    reached = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in served:
            reached.append(frame.f_code)

    sys.setprofile(profiler)
    try:
        pyramid3d.count_pyramid_paths(3, 4, (1, 0, 1, 1), "B")
        lattice.count_paths(3, 3, (1, 0, 1, 1), "FBF")
        lattice.count_generic(3, 3, (1, 0, 1, 1), 3)
        lattice.count_table(3, 3, "FF")
        lattice.generic_table(3, 3, 2)
        pyramid3d.reflection_count(3, 4, (1, 0))
        pyramid3d.corner_count_by_reflection(3, 4)
        pyramid3d.pyramid_gf_coefficients(3, 4)
    finally:
        sys.setprofile(None)
    assert reached == []
    sys.setprofile(profiler)
    try:
        pyramid3d.forward_count(3, (1, 0, 1, 1), 4)
        pyramid3d.count_waffle_walks(3, 4, (1, 0))
        pyramid3d.count_waffle_walks_to(3, 4, (1, 0))
        pyramid3d.corner_counts(3, 4)
    finally:
        sys.setprofile(None)
    assert set(reached) == served


def test_pyramid_to_waffle_errors():
    # a backward step that stays inside the pyramid is still no pyramid walk
    with pytest.raises(InvalidWalk, match=r"bad step -2: .* forward steps"):
        pyramid3d.pyramid_to_waffle((0, 1, 0, 1), (-2,))
    for steps in ((0,), (5,), (1, -3), ("1",)):
        with pytest.raises(InvalidWalk, match="bad step"):
            pyramid3d.pyramid_to_waffle((0, 1, 0, 1), steps)
    # a float or a bool equal to a step is still no step
    for steps, bad in (((1.0,), "1.0"), ((True,), "True"), ((1, 2.0), "2.0")):
        with pytest.raises(InvalidWalk) as exc:
            pyramid3d.pyramid_to_waffle((0, 0, 0, 1), steps)
        assert str(exc.value) == f"bad step {bad}: a pyramid walk takes forward steps 1-4"
    with pytest.raises(InvalidWalk, match="leaves the pyramid"):
        pyramid3d.pyramid_to_waffle((0, 0, 0, 2), (2,))
    for start in ((-1, 0, 0, 2), (0, 0, 2)):
        with pytest.raises(InvalidWalk, match="not a pyramid point"):
            pyramid3d.pyramid_to_waffle(start, ())
    assert pyramid3d.pyramid_to_waffle((0, 0, 0, 2), ()) == ((0, 0), "")


def test_zone_partition_golden():
    # the full scaffolding table at the showcase point, frozen
    doc = json.loads((GOLDEN / "diamond_scaffolding_8_4_6_7.json").read_text())
    z = tuple(doc["point"])
    got = {}
    for cell in pyramid3d.profile3d(z):
        for s in pyramid3d.allowed_cardinal(z, cell, sum(z)):
            j, c2 = pyramid3d.diamond_delta(z, cell, s)
            got[f"{cell[0]},{cell[1]}:{s}"] = [j, list(c2)]
    assert got == doc["table"]


def test_gf_coefficients():
    assert pyramid3d.pyramid_gf_coefficients(0, 5) == [1, 0, 0, 0, 0, 0]
    assert pyramid3d.pyramid_gf_coefficients(1, 5) == [1] * 6
    for L in range(5):
        coeffs = pyramid3d.pyramid_gf_coefficients(L, 10)
        assert coeffs[0] == 1
        for n in range(11):
            assert coeffs[n] == pyramid3d.count_pyramid_paths(L, n, lattice.origin(L, 3))


def test_gf_matches_reflection_past_the_fixed_precision():
    # 150 terms reach 82 digits; the closed form is evaluated exactly
    coeffs = pyramid3d.pyramid_gf_coefficients(12, 150)
    assert coeffs == [pyramid3d.corner_count_by_reflection(12, n) for n in range(151)]


def test_gf_equals_the_corner_count_up_to_L_16_and_200_terms():
    # at the corner C(z) is the one cell anchored at (0, 0), so forward_count
    # there is the waffle count from (0, 0), swept here once for every n
    N = 200
    for L in range(17):
        index, gathers = pyramid3d._waffle_graph(L)
        counts = [int(pt[1] == 0) for pt in index]
        corner = []
        for _ in range(N + 1):
            corner.append(counts[index[(0, 0)]])
            counts = lattice.sweep(counts, gathers)
        assert pyramid3d.pyramid_gf_coefficients(L, N) == corner, L
        assert corner[N] == pyramid3d.forward_count(L, lattice.origin(L, 3), N), L


def test_served_gf_rows_equal_the_closed_form():
    # the walker rows that serve `gf` against the exact constant term
    for L in range(13):
        assert pyramid3d.corner_counts(L, 200) == pyramid3d.pyramid_gf_coefficients(L, 200), L
    assert pyramid3d.corner_counts(40, 400) == pyramid3d.pyramid_gf_coefficients(40, 400)
    assert pyramid3d.corner_counts(0, 0) == [1]
    for L, N in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match=r">= 0"):
            pyramid3d.corner_counts(L, N)


def test_gf_answers_2000_terms():
    # coefficients past 10^800, exact in both the closed form and the kernel
    coeffs = pyramid3d.pyramid_gf_coefficients(4, 2000)
    assert coeffs[2000] == pyramid3d.forward_count(4, lattice.origin(4, 3), 2000)
    assert coeffs[2000] > 10**800


def test_importing_the_cli_loads_no_mpmath():
    code = "import sys, triwalks.cli; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(pyramid3d.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


def test_waffle_points_are_checked():
    # an end is checked like a start, with the same message
    for pt in ((0, 0, 1), (1,), (3, 2), (-1, 0), (5, 0), (1, 1, 1)):
        messages = []
        for count in (pyramid3d.count_waffle_walks, pyramid3d.reflection_count,
                      pyramid3d.count_waffle_walks_to):
            with pytest.raises(OutsideWaffle) as info:
                count(4, 2, pt)
            messages.append(str(info.value))
        with pytest.raises(OutsideWaffle) as info:
            pyramid3d.count_waffle_walks_to(4, 2, (0, 0), pt)
        messages.append(str(info.value))
        assert set(messages) == {f"{pt} is not a waffle point (i, j) with 0 <= j <= i <= 4 - j"}


def test_segment_walks_equal_the_kernel_rows():
    # every start a and end b of the segment 0..L + 2, M = L + 4, against
    # the transfer kernel from e_a
    for L in range(9):
        N = L + 3
        for n in range(21):
            for a in range(N):
                e_a = [int(k == a) for k in range(N)]
                row = lattice.tridiagonal_power([0] * N, n, [e_a])[0]
                assert [pyramid3d._segment_walks(n, a, b, L + 4) for b in range(N)] == row, (
                    L, n, a)


def test_reflection_counts():
    assert pyramid3d.reflection_count(4, 0, (0, 0)) == 1
    assert pyramid3d.reflection_count(4, 1, (1, 0)) == 1
    for L in range(9):
        for start in pyramid3d.waffle_points(L):
            for n in range(16):
                assert pyramid3d.reflection_count(L, n, start) == pyramid3d.count_waffle_walks_to(
                    L, n, start
                )


def test_corner_by_reflection():
    for L in range(4):
        for n in range(9):
            assert pyramid3d.corner_count_by_reflection(L, n) == pyramid3d.count_pyramid_paths(
                L, n, lattice.origin(L, 3)
            )
