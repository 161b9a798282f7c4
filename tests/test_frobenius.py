"""Frobenius system derivation, twisting and the distinguished central element."""

from __future__ import annotations

import random

import pytest

from frobstab.errors import DegenerateTrace, DualityViolation, NonInvertibleTwist, ParseError
from frobstab.exactfield import Field
from frobstab.catalog import (
    cyclic_group,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    truncated_module,
    truncated_polynomial,
)
from frobstab.frobenius import (
    FrobeniusSystem,
    check_identities,
    derive_system,
    element_inverse,
    enveloping_system,
    frobenius_element,
    gram_matrix,
    require_identities,
    twist,
)
from frobstab.stab import stable_hom

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def test_derived_bases_for_truncated_polynomials():
    inst = truncated_polynomial(2, GF2)
    sys = derive_system(inst.algebra, inst.system.trace)
    one, zero = GF2.one, GF2.zero
    assert sys.a_basis == ((one, zero), (zero, one))
    assert sys.b_basis == ((zero, one), (one, zero))


def test_derived_bases_for_group_algebras():
    g = cyclic_group(3)
    inst = group_algebra(g, GF3)
    sys = derive_system(inst.algebra, inst.system.trace)
    for i in range(3):
        assert sys.a_basis[i] == inst.algebra.basis_vector(i)
        assert sys.b_basis[i] == inst.algebra.basis_vector(g.inverse[i])


def test_derivation_matches_catalog_everywhere():
    instances = [truncated_polynomial(n, f) for n in (2, 3, 4, 5) for f in (GF2, Q)]
    instances += [
        group_algebra(g, f)
        for g in (cyclic_group(3), klein_four_group(), symmetric_group_3())
        for f in (GF2, Q)
    ]
    for inst in instances:
        derived = derive_system(inst.algebra, inst.system.trace)
        assert derived.a_basis == inst.system.a_basis
        assert derived.b_basis == inst.system.b_basis


def test_degenerate_trace_rejected_with_rank_deficit():
    alg = truncated_polynomial(3, Q).algebra
    trace = (Q.one, Q.zero, Q.zero)
    with pytest.raises(DegenerateTrace) as exc:
        derive_system(alg, trace)
    assert exc.value.witness == 2
    g = gram_matrix(alg, trace)
    assert g.rank() == 1
    assert g.transpose().rank() == 1


def test_identities_detect_scrambled_bases():
    inst = truncated_polynomial(3, GF2)
    sys = inst.system
    assert check_identities(sys)
    scrambled = FrobeniusSystem(
        algebra=sys.algebra, trace=sys.trace,
        a_basis=sys.a_basis,
        b_basis=(sys.b_basis[2], sys.b_basis[1], sys.b_basis[0]),
    )
    assert not check_identities(scrambled)
    with pytest.raises(DualityViolation) as err:
        require_identities(scrambled)
    assert err.value.witness == 0
    assert require_identities(sys) is sys


def test_central_element_truncated():
    inst2 = truncated_polynomial(2, GF2)
    assert frobenius_element(inst2.system) == (0, 1, 1, 0)
    inst3 = truncated_polynomial(3, Q)
    zero, one = Q.zero, Q.one
    assert frobenius_element(inst3.system) == (
        zero, zero, one, zero, one, zero, one, zero, zero
    )


def test_central_element_group():
    inst = group_algebra(cyclic_group(2), Q)
    # e(x)e + g(x)g in the i-major tensor basis
    assert frobenius_element(inst.system) == (Q.one, Q.zero, Q.zero, Q.one)
    s3 = group_algebra(symmetric_group_3(), GF2)
    xi = frobenius_element(s3.system)
    assert sum(1 for v in xi if v) == 6


def test_centrality_violation_for_non_dual_bases():
    from frobstab.errors import CentralityViolation

    inst = group_algebra(symmetric_group_3(), Q)
    sys = inst.system
    fake = FrobeniusSystem(
        algebra=sys.algebra, trace=sys.trace,
        a_basis=sys.a_basis, b_basis=sys.a_basis,
    )
    with pytest.raises(CentralityViolation):
        frobenius_element(fake)


def test_element_inverse():
    alg = truncated_polynomial(3, Q).algebra
    d = (Q.one, Q.one, Q.zero)  # 1 + x
    inv = element_inverse(alg, d)
    assert inv is not None
    assert alg.mul(d, inv) == alg.unit
    assert alg.mul(inv, d) == alg.unit
    assert element_inverse(alg, alg.basis_vector(1)) is None
    assert element_inverse(alg, alg.zero_vector()) is None


def test_left_twist_explicit():
    inst = truncated_polynomial(2, Q)
    d = (Q.one, Q.one)  # 1 + x
    tw = twist(inst.system, d, side="left")
    assert tw.trace == (Q.one, Q.one)
    # a_i' = a_i (1+x)^{-1} = a_i (1-x)
    m1 = Q.from_int(-1)
    assert tw.a_basis == ((Q.one, m1), (Q.zero, Q.one))
    assert tw.b_basis == inst.system.b_basis
    assert check_identities(tw)


def test_right_twist_explicit():
    inst = truncated_polynomial(2, Q)
    d = (Q.one, Q.one)
    tw = twist(inst.system, d, side="right")
    assert tw.trace == (Q.one, Q.one)
    assert tw.a_basis == inst.system.a_basis
    # b_0 = x is fixed by (1-x)* since x - x^2 = x; b_1 = 1 moves to 1 - x
    m1 = Q.from_int(-1)
    assert tw.b_basis == ((Q.zero, Q.one), (Q.one, m1))
    assert check_identities(tw)


def test_twist_guards():
    inst = truncated_polynomial(2, Q)
    with pytest.raises(NonInvertibleTwist):
        twist(inst.system, (Q.zero, Q.one), side="left")
    with pytest.raises(ParseError):
        twist(inst.system, (Q.one, Q.zero), side="middle")


def test_twist_round_trip_is_exact():
    inst = truncated_polynomial(4, Q)
    d = (Q.one, Q.from_int(2), Q.from_int(-1), Q.from_int(3))
    inv = element_inverse(inst.algebra, d)
    for side in ("left", "right"):
        back = twist(twist(inst.system, d, side=side), inv, side=side)
        assert back.trace == inst.system.trace
        assert back.a_basis == inst.system.a_basis
        assert back.b_basis == inst.system.b_basis


def test_twisted_systems_give_same_stable_dims():
    rng = random.Random(99)
    inst = truncated_polynomial(3, GF5)
    m, n_ = truncated_module(3, 1, GF5), truncated_module(3, 2, GF5)
    base = stable_hom(inst.system, m, n_)
    for _ in range(5):
        while True:
            d = tuple(rng.randrange(5) for _ in range(3))
            if element_inverse(inst.algebra, d) is not None:
                break
        side = "left" if rng.random() < 0.5 else "right"
        tw = twist(inst.system, d, side=side)
        res = stable_hom(tw, m, n_)
        assert (res.hom_dim, res.null_dim, res.stable_dim) == (
            base.hom_dim, base.null_dim, base.stable_dim
        )


def test_enveloping_system():
    inst = truncated_polynomial(2, GF2)
    env = enveloping_system(inst.system)
    assert env.algebra.dim == 4
    assert check_identities(env)
    # trace of p(x)q is trace(p) * trace(q)
    for i in range(2):
        for j in range(2):
            assert env.trace[i * 2 + j] == GF2.mul(
                inst.system.trace[i], inst.system.trace[j]
            )
    # its own central element passes the centrality check
    frobenius_element(env)
