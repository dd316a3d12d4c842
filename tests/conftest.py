"""Shared brute-force oracles, kept independent of the library internals.

These replicate definitions directly (recursive enumeration over raw
tuples) so the dynamic programming and the bijections are checked against
something that cannot share their bugs.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomized: the same examples on every run, and no example database
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")


def brute_walks(L, d, start, n, step_set):
    """All step sequences of length n staying coordinate-wise non-negative.

    ``step_set`` lists signed indices; implemented from the definition with
    no shared code path with triwalks.lattice.
    """
    out = []

    def vec(s):
        v = [0] * (d + 1)
        sign = 1 if s > 0 else -1
        v[abs(s) - 1] += sign
        v[(abs(s) - 2) % (d + 1)] -= sign
        return v

    def rec(p, acc):
        if len(acc) == n:
            out.append(tuple(acc))
            return
        for s in step_set:
            q = [a + b for a, b in zip(p, vec(s))]
            if min(q) >= 0:
                acc.append(s)
                rec(q, acc)
                acc.pop()

    rec(list(start), [])
    return out


def brute_forward(L, d, start, n):
    return brute_walks(L, d, start, n, list(range(1, d + 2)))


def brute_generic(L, d, start, n):
    steps = list(range(1, d + 2)) + [-j for j in range(1, d + 2)]
    return brute_walks(L, d, start, n, steps)


def brute_motzkin_words(n):
    """Every U/F/D word of length n that is a Motzkin path (no height bound)."""
    out = []

    def rec(h, acc):
        if len(acc) == n:
            if h == 0:
                out.append("".join(acc))
            return
        if h > n - len(acc):
            return
        acc.append("U")
        rec(h + 1, acc)
        acc.pop()
        acc.append("F")
        rec(h, acc)
        acc.pop()
        if h > 0:
            acc.append("D")
            rec(h - 1, acc)
            acc.pop()

    rec(0, [])
    return out


def word_amplitude(word):
    """Amplitude straight from the definition, for cross-checking."""
    h = 0
    hs = [0]
    for ch in word:
        h += {"U": 1, "F": 0, "D": -1}[ch]
        hs.append(h)
    top = max(hs)
    if any(ch == "F" and hs[i] == top for i, ch in enumerate(word)):
        return 2 * top + 1
    return 2 * top


@pytest.fixture(scope="session")
def motzkin_by_amplitude():
    """words[n][a] = set of length-n Motzkin words of amplitude exactly a."""
    table = {}
    for n in range(9):
        buckets = {}
        for w in brute_motzkin_words(n):
            buckets.setdefault(word_amplitude(w), set()).add(w)
        table[n] = buckets
    return table
