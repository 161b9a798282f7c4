"""Failure reporting of the acceptance criteria."""

from __future__ import annotations

import functools

from frobstab import algebra as algebra_module
from frobstab import catalog, modrep, selftest
from frobstab.algebra import StructureAlgebra, tensor
from frobstab.errors import DualityViolation
from frobstab.exactfield import Field

GF2 = Field.prime(2)


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
    """The catalog and `modrep` share their algebras and modules, so one run
    computes each generating set, each enveloping algebra and each shared
    module's presentation once, and a second run computes none of them
    and builds no free module: it presents only the modules that the
    shifts of criterion 10 build afresh.  No enveloping algebra builds its
    multiplication matrices."""
    gens_of, tensors, presented, built = [], [], [], []
    generators = StructureAlgebra.__dict__["generators"]
    present, module_rep = modrep._present, modrep.ModuleRep

    def counting_generators(alg):
        gens_of.append(alg)
        return generators.func(alg)

    def counting_tensor(a, b, name=None):
        tensors.append(tensor(a, b, name))
        return tensors[-1]

    def counting_present(m):
        presented.append(m)
        return present(m)

    def counting_module(*args, **kwargs):
        built.append(kwargs.get("name"))
        return module_rep(*args, **kwargs)

    _clear_clears_the_shared_modules()
    prop = functools.cached_property(counting_generators)
    prop.__set_name__(StructureAlgebra, "generators")
    monkeypatch.setattr(StructureAlgebra, "generators", prop)
    monkeypatch.setattr(algebra_module, "tensor", counting_tensor)
    monkeypatch.setattr(modrep, "_present", counting_present)
    monkeypatch.setattr(modrep, "ModuleRep", counting_module)

    first = selftest.run_all()
    assert all(r.passed for r in first)
    assert 0 < len(gens_of) <= 60 and 0 < len(tensors) <= 21
    assert "free1" in built and [m for m in presented if m.name == "free1"]
    assert [m for m in presented if m.name.endswith("-bimodule")]
    # The enveloping algebras are used through their structure constants
    # only, so none holds its dim^3 multiplication-matrix entries.
    assert not [env.name for env in tensors if {"left", "right"} & set(vars(env))]
    counted = len(gens_of), len(tensors)
    presented.clear()
    built.clear()
    second = selftest.run_all()
    assert (len(gens_of), len(tensors)) == counted
    assert len(presented) == 16 and all(m.name.endswith("[-1]") for m in presented)
    assert not [name for name in built if name.startswith("free") and name[4:].isdigit()]
    assert [(r.cid, r.checks) for r in second] == [(r.cid, r.checks) for r in first]


def _clear_clears_the_shared_modules():
    """`cache_clear` on a catalog constructor clears the shared modules of
    `modrep` and the catalog's trivial modules too."""
    alg = catalog.group_algebra(catalog.cyclic_group(2), GF2).algebra
    shared = [(modrep.free_module, (alg, 2)), (modrep.regular_module, (alg,)),
              (modrep.bimodule_regular, (alg,)), (catalog.trivial_module, (alg,))]
    before = [build(*args) for build, args in shared]
    assert [build(*args) for build, args in shared] == before
    assert all(build(*args) is old for (build, args), old in zip(shared, before))
    catalog.truncated_polynomial.cache_clear()
    alg = catalog.group_algebra(catalog.cyclic_group(2), GF2).algebra
    assert all(build(alg, *args[1:]) is not old for (build, args), old in zip(shared, before))
