import pytest

from tvbraid.suite import CHECKS, CheckReport, format_report, run_suite

EXPECTED_CHECK_IDS = [
    "relators-vanish",
    "extended-symmetric-model",
    "transversal-classification",
    "derived-vs-registry",
    "derived-pl-table",
    "abelian-invariants",
    "pl-to-vp",
    "split-random",
    "bar-conjugation",
]


def test_check_registry():
    assert list(CHECKS) == EXPECTED_CHECK_IDS


def test_reports_are_deterministic():
    a = format_report(run_suite(n_range=[2]))
    b = format_report(run_suite(n_range=[2]))
    assert a == b
    assert "[" not in a.splitlines()[0]  # no timing decoration by default


def test_timings_flag():
    reports = [CheckReport("x", 2, "pass", "ok", 1.5)]
    assert format_report(reports, include_timings=True).splitlines()[0].endswith(
        "[1.50s]"
    )


def test_unknown_check():
    with pytest.raises(ValueError):
        run_suite(checks=["nope"])


def test_named_checks_run_once_in_declaration_order():
    reports = run_suite(checks=["pl-to-vp", "relators-vanish", "pl-to-vp"], n_range=[3])
    assert [r.check_id for r in reports] == ["relators-vanish", "pl-to-vp"]
    with pytest.raises(ValueError, match="^unknown checks: nope, nope$"):
        run_suite(checks=["nope", "pl-to-vp", "nope"])


def test_n_range_filter():
    reports = run_suite(checks=["relators-vanish"], n_range=[3, 4])
    assert [r.n for r in reports] == [3, 4]
    assert run_suite(checks=["derived-pl-table"], n_range=[2]) == []


def test_crash_becomes_failure(monkeypatch):
    def boom(n, seed):
        raise RuntimeError("kaput")

    monkeypatch.setitem(CHECKS, "relators-vanish", (boom, (2,)))
    reports = run_suite(checks=["relators-vanish"])
    assert reports[0].status == "fail"
    assert "kaput" in reports[0].details


def test_small_rank_pass():
    reports = run_suite(n_range=[2, 3])
    assert all(r.status == "pass" for r in reports)
    summary = format_report(reports).splitlines()[-1]
    assert summary == f"{len(reports)}/{len(reports)} checks passed"


def test_seed_changes_nothing_detectable():
    # different seeds pick different random words but the verdicts agree
    a = [r.status for r in run_suite(checks=["split-random"], n_range=[2], seed=1)]
    b = [r.status for r in run_suite(checks=["split-random"], n_range=[2], seed=2)]
    assert a == b == ["pass"]
