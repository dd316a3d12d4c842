"""Property-based identities checked past the exhaustive grids.

Hypothesis runs under the derandomized profile loaded in ``conftest.py``,
so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from triwalks import lattice  # noqa: E402


@given(
    d=st.sampled_from((2, 3)),
    L=st.integers(0, 12),
    dv=st.text(alphabet="FB", max_size=40),
)
def test_count_table_independent_of_direction_vector(d, L, dv):
    assert lattice.count_table(L, d, dv) == lattice.count_table(L, d, "F" * len(dv))
