#!/usr/bin/env python3
"""Dimension three: pyramid walks against waffle walks.

Forward walks in the pyramid of side L are equinumerous with N/E/S/W walks
confined to the waffle {0 <= j <= i <= L - j} that end on the axis j = 0.
The anchored cell grids give a length-preserving bijection. The corner
counts come four ways: the pyramid DP; the walker rows that `gf` serves,
which step those two +-1 walkers on a segment and read a 2x2 determinant
after each step; the closed-form generating function, evaluated exactly
as a constant term; and the reflection principle, which sees a waffle
walk as two +-1 walkers on a segment that never meet and counts them by
a 2x2 determinant of 1-D image sums of binomials.
"""

from triwalks import lattice, pyramid3d

L = 2
O = lattice.origin(L, 3)
print(f"pyramid of side {L}, corner counts four ways:")
rows = pyramid3d.corner_counts(L, 10)
gf = pyramid3d.pyramid_gf_coefficients(L, 10)
for n in range(11):
    dp = pyramid3d.count_pyramid_paths(L, n, O)
    refl = pyramid3d.corner_count_by_reflection(L, n)
    print(f"  n={n:2d}: dp={dp:5d}  rows={rows[n]:5d}  closed form={gf[n]:5d}"
          f"  reflection={refl:5d}")

print()
z = (1, 0, 0, 1)
print(f"cells of {z} anchor into the waffle at", pyramid3d.anchored_region(z))

print()
print("walks through the scaffolding (side 2, corner, length 4):")
for w in pyramid3d.enumerate_waffle_walks(2, (0, 0), 4):
    p = pyramid3d.waffle_to_pyramid(O, (0, 0), w)
    cell, back = pyramid3d.pyramid_to_waffle(O, p)
    assert back == w and cell == (0, 0)
    print(f"  waffle {w}  ->  pyramid {lattice.format_steps(p)}")

print()
print("the count identity across the waffle (side 3, length 5):")
for (i, j) in pyramid3d.waffle_points(3):
    w = pyramid3d.count_waffle_walks(3, 5, (i, j))
    p1 = pyramid3d.count_pyramid_paths(3, 5, pyramid3d.paired_start_point(3, i, j))
    p2 = (
        pyramid3d.count_pyramid_paths(3, 5, pyramid3d.paired_start_point(3, i - 1, j - 1))
        if j >= 1
        else 0
    )
    print(f"  from ({i},{j}): waffle={w:4d}   pyramid {p1:4d} - {p2:4d} = {p1 - p2:4d}")

print()
print("signed array symmetry (side 2, length 4): w[i][j] = -w[L+1-j][L+1-i]")
arr = pyramid3d.signed_waffle_array(2, 4)[4]
for (i, j), v in sorted(arr.items()):
    if v:
        print(f"  w[{i}][{j}] = {v:4d}   mirror w[{3 - j}][{3 - i}] = {arr.get((3 - j, 3 - i), 0):4d}")
