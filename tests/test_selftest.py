"""Failure reporting of the acceptance criteria."""

from __future__ import annotations

from frobstab import selftest
from frobstab.errors import DualityViolation


def test_criterion_6_lists_a_twist_that_breaks_the_identities(monkeypatch):
    def bad_twist(system, d, side):
        raise DualityViolation("identities fail", witness=0)

    monkeypatch.setattr(selftest, "twist", bad_twist)
    res = selftest.criterion_6()
    # Ten twists per case, each counted once and listed, nothing compared.
    assert res.checks == 20
    assert len(res.failures) == 20
    assert all(f.endswith("identities fail") for f in res.failures)
