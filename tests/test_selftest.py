"""Failure reporting of the acceptance criteria."""

from __future__ import annotations

import functools

from frobstab import algebra as algebra_module
from frobstab import catalog, selftest
from frobstab.algebra import StructureAlgebra, tensor
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


def test_derived_structure_is_computed_once_per_catalog_instance(monkeypatch):
    """The catalog shares its algebras, so one run computes each generating
    set and each enveloping algebra once, and a second run computes none;
    no enveloping algebra builds its multiplication matrices."""
    gens_of, tensors = [], []
    generators = StructureAlgebra.__dict__["generators"]

    def counting_generators(alg):
        gens_of.append(alg)
        return generators.func(alg)

    def counting_tensor(a, b, name=None):
        tensors.append(tensor(a, b, name))
        return tensors[-1]

    prop = functools.cached_property(counting_generators)
    prop.__set_name__(StructureAlgebra, "generators")
    monkeypatch.setattr(StructureAlgebra, "generators", prop)
    monkeypatch.setattr(algebra_module, "tensor", counting_tensor)
    catalog.truncated_polynomial.cache_clear()
    catalog.group_algebra.cache_clear()

    first = selftest.run_all()
    assert all(r.passed for r in first)
    assert 0 < len(gens_of) <= 60 and 0 < len(tensors) <= 21
    # The enveloping algebras are used through their structure constants
    # only, so none holds its dim^3 multiplication-matrix entries.
    assert not [env.name for env in tensors if {"left", "right"} & set(vars(env))]
    counted = len(gens_of), len(tensors)
    second = selftest.run_all()
    assert (len(gens_of), len(tensors)) == counted
    assert [(r.cid, r.checks) for r in second] == [(r.cid, r.checks) for r in first]
