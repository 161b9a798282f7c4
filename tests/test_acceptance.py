"""Acceptance gate: every checked claim at exact arithmetic, zero tolerance.

Each criterion below reports one pass/fail line under pytest -v.  The
underlying sweep runs once per session; individual tests read its verdicts.
"""

from __future__ import annotations

import pytest

from frobstab.selftest import run_all

_IDS = {
    1: "endomorphism-table",
    2: "truncated-stable-centers",
    3: "stable-center-two-routes",
    4: "null-space-oracle",
    5: "null-space-containment",
    6: "twist-invariance",
    7: "enveloping-route",
    8: "tate-degree-zero",
    9: "projective-vanishing-naturality",
    10: "shift-adjunction-ext",
}


@pytest.fixture(scope="module")
def verdicts():
    return {r.cid: r for r in run_all()}


@pytest.mark.parametrize(
    "cid", sorted(_IDS), ids=[f"{k:02d}-{v}" for k, v in sorted(_IDS.items())]
)
def test_criterion(cid, verdicts):
    result = verdicts[cid]
    assert result.checks > 0
    detail = "\n".join(result.failures) or "all checks passed"
    print(f"criterion {cid} ({result.title}): "
          f"{'PASS' if result.passed else 'FAIL'} [{result.checks} checks]")
    assert result.passed, f"criterion {cid} ({result.title}):\n{detail}"


def test_every_criterion_is_covered(verdicts):
    assert sorted(verdicts) == list(range(1, 11))


def test_check_counts_are_pinned(verdicts):
    """The per-criterion check counts, which `frobstab selftest` prints and
    the benchmark's selftest digest records; criterion 5 audits 188 pairs
    of its own when it runs alone."""
    assert [(cid, r.checks) for cid, r in sorted(verdicts.items())] == [
        (1, 140), (2, 56), (3, 21), (4, 140), (5, 705),
        (6, 80), (7, 34), (8, 21), (9, 344), (10, 23),
    ]
    assert [(r.cid, r.checks) for r in run_all([5])] == [(5, 188)]
    assert [(r.cid, r.checks) for r in run_all([2, 8, 10])] == [(2, 56), (8, 21), (10, 23)]
