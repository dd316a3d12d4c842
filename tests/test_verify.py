"""The verify harness: one result type, grid arguments, failure reports."""

import functools

from triwalks import flips, profiles, pyramid3d, scaffold2d, verify


def _wrapped(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def test_run_suite_shrinks_the_grids(monkeypatch):
    results = verify.run_suite("profiles", max_L=2, max_n=3)
    assert [r.checked for r in results] == [57, 36]
    assert all(r.ok and r.seconds >= 0 for r in results)
    # a wrapper that keeps the signature (as a tracer's does) gets the same grids
    monkeypatch.setitem(verify.SUITES, "profiles", [_wrapped(fn) for fn in verify.SUITES["profiles"]])
    assert [r.checked for r in verify.run_suite("profiles", max_L=2, max_n=3)] == [57, 36]


def test_a_wrong_answer_is_reported(monkeypatch):
    monkeypatch.setattr(flips, "transform", lambda p, target, d=2: tuple(-1 for _ in p))
    result = verify.check_algorithm1_involution(1, 1)
    assert not result.ok and result.seconds is None
    assert result.to_json() == {
        "name": "explicit forward/backward involution",
        "ok": False,
        "checked": 5,
        "detail": "disagrees with transport",
        "counterexample": "(1, (0, 0, 1), (1,), (-3,))",
    }


def test_certificates_and_checks_share_one_result_type():
    reports = [
        profiles.check_profile_identities(2),
        profiles.check_cells_match_profiles(2),
        profiles.check_forward_counts_via_profiles(2, 3),
        scaffold2d.validate_scaffolding(scaffold2d.TrapeziumScaffolding(2)),
        pyramid3d.validate_scaffolding3d(2),
        verify.check_omega(2, 3),
    ]
    assert {type(r) for r in reports} == {verify.CheckResult}
    for r in reports:
        assert r.ok and r.counterexample is None and r.checked > 0
        assert set(r.to_json()) == {"name", "ok", "checked", "detail"}


def test_a_certificate_keeps_every_violation():
    scaf = scaffold2d.RandomScaffolding(3, 5)
    tab = scaf.tables[(0, 0, 3)]
    first, last = sorted(tab)[0], sorted(tab)[-1]
    tab[first] = tab[last]
    rep = scaffold2d.validate_scaffolding(scaf)
    assert len(rep.violations) > 1
    assert rep.counterexample == rep.violations[0]
    assert rep.to_json()["counterexample"] == repr(rep.violations[0])
