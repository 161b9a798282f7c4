"""Frobenius system derivation, twisting and the distinguished central element."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobstab import frobenius
from frobstab.algebra import StructureAlgebra
from frobstab.errors import (
    CentralityViolation,
    DegenerateTrace,
    DualityViolation,
    NonInvertibleTwist,
    ParseError,
)
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
from frobstab.linalg import Matrix, kron
from frobstab.stab import stable_hom
from helpers import dual_bases, frobenius_matrix, quantum_exterior

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def test_derived_bases_for_truncated_polynomials():
    inst = truncated_polynomial(2, GF2)
    sys = derive_system(inst.algebra, inst.system.trace)
    one, zero = GF2.one, GF2.zero
    assert sys.element_matrix == Matrix.from_rows(GF2, [[0, 1], [1, 0]])
    assert dual_bases(sys) == (((one, zero), (zero, one)), ((zero, one), (one, zero)))


def test_derived_bases_for_group_algebras():
    g = cyclic_group(3)
    inst = group_algebra(g, GF3)
    sys = derive_system(inst.algebra, inst.system.trace)
    a_basis, b_basis = dual_bases(sys)
    for i in range(3):
        assert a_basis[i] == inst.algebra.basis_vector(i)
        assert b_basis[i] == inst.algebra.basis_vector(g.inverse[i])


def test_derivation_matches_catalog_everywhere():
    instances = [truncated_polynomial(n, f) for n in (2, 3, 4, 5) for f in (GF2, Q)]
    instances += [
        group_algebra(g, f)
        for g in (cyclic_group(3), klein_four_group(), symmetric_group_3())
        for f in (GF2, Q)
    ]
    for inst in instances:
        derived = derive_system(inst.algebra, inst.system.trace)
        assert derived.element_matrix == inst.system.element_matrix


def test_degenerate_trace_rejected_with_rank_deficit():
    alg = truncated_polynomial(3, Q).algebra
    trace = (Q.one, Q.zero, Q.zero)
    with pytest.raises(DegenerateTrace) as exc:
        derive_system(alg, trace)
    assert exc.value.witness == 2
    g = gram_matrix(alg, trace)
    assert g.rank() == 1
    assert g.transpose().rank() == 1


def test_derive_system_builds_one_gram_matrix(monkeypatch):
    """derive_system inverts G and checks the identities against that same
    G: one `gram_matrix` call per system, and one for a degenerate trace."""
    calls = []
    monkeypatch.setattr(frobenius, "gram_matrix",
                        lambda alg, trace: calls.append(1) or gram_matrix(alg, trace))
    trunc = truncated_polynomial(5, GF3)
    lam = quantum_exterior(2)
    for alg, trace in ((trunc.algebra, trunc.system.trace), (lam.algebra, lam.trace)):
        calls.clear()
        derive_system(alg, trace)
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(DegenerateTrace):
        derive_system(truncated_polynomial(3, Q).algebra, (Q.one, Q.zero, Q.zero))
    assert len(calls) == 1


def test_identities_detect_scrambled_bases():
    # The rows of C reversed: the element of the bases {e_i}, {b_2, b_1, b_0}.
    inst = truncated_polynomial(3, GF2)
    sys = inst.system
    assert check_identities(sys)
    rows = sys.element_matrix.to_rows()
    scrambled = FrobeniusSystem(
        algebra=sys.algebra, trace=sys.trace,
        element_matrix=Matrix.from_rows(GF2, rows[::-1]),
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
    inst = group_algebra(symmetric_group_3(), Q)
    sys = inst.system
    # a_i = b_i = e_i, whose element is the identity matrix.
    fake = FrobeniusSystem(
        algebra=sys.algebra, trace=sys.trace,
        element_matrix=Matrix.identity(Q, sys.algebra.dim),
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
    assert element_inverse(alg, (Q.zero,) * alg.dim) is None


def test_left_twist_explicit():
    inst = truncated_polynomial(2, Q)
    d = (Q.one, Q.one)  # 1 + x
    tw = twist(inst.system, d, side="left")
    assert tw.trace == (Q.one, Q.one)
    # a_i' = a_i (1+x)^{-1} = a_i (1-x), b_i' = b_i
    m1 = Q.from_int(-1)
    b_basis = dual_bases(inst.system)[1]
    a_basis = ((Q.one, m1), (Q.zero, Q.one))
    assert tw.element_matrix == frobenius_matrix(inst.algebra, a_basis, b_basis)
    assert check_identities(tw)


def test_right_twist_explicit():
    inst = truncated_polynomial(2, Q)
    d = (Q.one, Q.one)
    tw = twist(inst.system, d, side="right")
    assert tw.trace == (Q.one, Q.one)
    # a_i' = a_i; b_0 = x is fixed by (1-x)* since x - x^2 = x; b_1 = 1
    # moves to 1 - x
    m1 = Q.from_int(-1)
    a_basis = dual_bases(inst.system)[0]
    b_basis = ((Q.zero, Q.one), (Q.one, m1))
    assert tw.element_matrix == frobenius_matrix(inst.algebra, a_basis, b_basis)
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
        assert back.element_matrix == inst.system.element_matrix


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


def test_enveloping_system_is_built_once_per_system(monkeypatch):
    # A system equal by value to a catalog one, but a fresh instance with
    # nothing cached: its enveloping system is built and checked on the
    # first call, and every later call returns that same instance.
    base = group_algebra(symmetric_group_3(), GF3).system
    system = FrobeniusSystem(base.algebra, base.trace, base.element_matrix)
    checked = []

    def counting(sys_):
        checked.append(sys_)
        return require_identities(sys_)

    monkeypatch.setattr(frobenius, "require_identities", counting)
    first = enveloping_system(system)
    assert enveloping_system(system) is first
    assert len(checked) == 1 and checked[0] is first
    assert first == enveloping_system(base)


# The per-element loops the matrix checks replaced, kept as oracles: both
# identities at every e_j and centrality against every e_t, through algebra
# products and plain tensor sums.


def _trace_of(system, x):
    f = system.algebra.field
    acc = f.zero
    for c, t in zip(x, system.trace):
        acc = f.add(acc, f.mul(c, t))
    return acc


def _identity_failure_oracle(system):
    alg, f, n = system.algebra, system.algebra.field, system.algebra.dim
    for j in range(n):
        e = alg.basis_vector(j)
        left, right = [f.zero] * n, [f.zero] * n
        for a_i, b_i in zip(*dual_bases(system)):
            c1 = _trace_of(system, alg.mul(b_i, e))
            c2 = _trace_of(system, alg.mul(e, a_i))
            for p in range(n):
                left[p] = f.add(left[p], f.mul(c1, a_i[p]))
                right[p] = f.add(right[p], f.mul(c2, b_i[p]))
        if tuple(left) != e or tuple(right) != e:
            return j
    return None


def _tensor(alg, terms):
    f, n = alg.field, alg.dim
    out = [f.zero] * (n * n)
    for x, y in terms:
        for p in range(n):
            for q in range(n):
                out[p * n + q] = f.add(out[p * n + q], f.mul(x[p], y[q]))
    return tuple(out)


def _centrality_failure_oracle(system):
    alg = system.algebra
    pairs = list(zip(*dual_bases(system)))
    for t in range(alg.dim):
        e = alg.basis_vector(t)
        lhs = _tensor(alg, [(alg.mul(e, a_i), b_i) for a_i, b_i in pairs])
        rhs = _tensor(alg, [(a_i, alg.mul(b_i, e)) for a_i, b_i in pairs])
        if lhs != rhs:
            return t
    return None


def _catalog_systems():
    systems = [truncated_polynomial(n, f).system for n in range(1, 6) for f in (GF2, GF3, Q)]
    systems += [
        group_algebra(g, f).system
        for g in (cyclic_group(3), klein_four_group(), symmetric_group_3())
        for f in (GF2, GF3, Q)
    ]
    return systems


def _random_unit(rng, alg):
    f = alg.field
    while True:
        d = tuple(f.from_int(rng.randrange(-2, 3)) for _ in range(alg.dim))
        if element_inverse(alg, d) is not None:
            return d


@functools.lru_cache(maxsize=None)
def _system_pool():
    """Catalog systems, one left and one right twist of each, and the
    enveloping systems of those of dim <= 4."""
    base = _catalog_systems()
    rng = random.Random(6)
    twisted = [
        twist(s, _random_unit(rng, s.algebra), side=side)
        for s in base for side in ("left", "right")
    ]
    env = [enveloping_system(s) for s in base if s.algebra.dim <= 4]
    return tuple(base + twisted + env)


@st.composite
def _perturbed_system(draw):
    """A pool system with one entry of C shifted (one entry of b_i, in
    `dual_bases`), or delta times one row of C added to another (one entry
    of a_i shifted), or unchanged."""
    s = draw(st.sampled_from(_system_pool()))
    f, n = s.algebra.field, s.algebra.dim
    if draw(st.integers(0, 3)) == 0:
        return s
    if f.p is None:
        delta = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]))
    else:
        delta = draw(st.integers(1, f.p - 1))
    rows = s.element_matrix.to_rows()
    i, p = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        rows[i][p] = f.add(rows[i][p], delta)
    else:
        # a_i + delta e_p in place of a_i = e_i adds delta c_i to row p.
        rows[p] = [f.add(x, f.mul(delta, y)) for x, y in zip(rows[p], rows[i])]
    return FrobeniusSystem(s.algebra, s.trace, Matrix.from_rows(f, rows, ncols=n))


@settings(max_examples=150, deadline=None)
@given(_perturbed_system())
def test_matrix_checks_match_per_element_loops(system):
    want = _identity_failure_oracle(system)
    assert check_identities(system) == (want is None)
    if want is None:
        assert require_identities(system) is system
    else:
        with pytest.raises(DualityViolation) as err:
            require_identities(system)
        assert err.value.witness == want
    want_t = _centrality_failure_oracle(system)
    if want_t is None:
        pairs = zip(*dual_bases(system))
        assert frobenius_element(system) == _tensor(system.algebra, pairs)
    else:
        with pytest.raises(CentralityViolation) as err:
            frobenius_element(system)
        assert err.value.witness == want_t


def test_identity_and_centrality_checks_make_no_algebra_products(monkeypatch):
    systems = _catalog_systems()
    trunc3 = truncated_polynomial(3, Q).system
    s3 = group_algebra(symmetric_group_3(), GF3).system

    def refuse(self, x, y):
        raise AssertionError("StructureAlgebra.mul called")

    monkeypatch.setattr(StructureAlgebra, "mul", refuse)
    for s in systems + [enveloping_system(trunc3), enveloping_system(s3)]:
        fresh = FrobeniusSystem(s.algebra, s.trace, s.element_matrix)
        assert require_identities(fresh) is fresh
        frobenius_element(fresh)


def test_twist_and_enveloping_make_no_algebra_products(monkeypatch):
    # Both twists and the enveloping system are read off C by matrix
    # products and a Kronecker product, with no StructureAlgebra.mul call,
    # their identity checks included.
    rng = random.Random(8)
    systems = _catalog_systems()
    units = [_random_unit(rng, s.algebra) for s in systems]

    def refuse(self, x, y):
        raise AssertionError("StructureAlgebra.mul called")

    monkeypatch.setattr(StructureAlgebra, "mul", refuse)
    for s, d in zip(systems, units):
        fresh = FrobeniusSystem(s.algebra, s.trace, s.element_matrix)
        for side in ("left", "right"):
            twist(fresh, d, side=side)
        if s.algebra.dim <= 4:
            enveloping_system(fresh)


def test_frobenius_matrix_orientation_on_a_non_symmetric_algebra():
    # On Lambda_q the trace is not symmetric, so C != C^T and each side of C
    # is pinned: the twists and the enveloping system must give the
    # Frobenius matrix A^T B of the moved dual bases, read off C as a_i = e_i
    # and b_i = c_i, row i of C.
    for q in (2, 3):
        system = quantum_exterior(q)
        alg, c = system.algebra, system.element_matrix
        assert c != c.transpose()
        e, rows = dual_bases(system)
        # 1 + x, 2 + y and 1 + 3x - y + 5xy, on the basis 1, x, y, xy
        for d in ((1, 1, 0, 0), (2, 0, 1, 0), (1, 3, -1, 5)):
            d = tuple(map(Q.from_int, d))
            d_inv = element_inverse(alg, d)
            left, right = twist(system, d, side="left"), twist(system, d, side="right")
            moved_a = [alg.mul(a, d_inv) for a in e]
            moved_b = [alg.mul(d_inv, b) for b in rows]
            assert left.element_matrix == frobenius_matrix(alg, moved_a, rows)
            assert right.element_matrix == frobenius_matrix(alg, e, moved_b)
        env = enveloping_system(system)
        pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
        assert env.element_matrix == frobenius_matrix(
            env.algebra, [_tensor(alg, [(e[i], rows[j])]) for i, j in pairs],
            [_tensor(alg, [(rows[i], e[j])]) for i, j in pairs])


def test_element_matrix_closed_forms():
    # derive_system takes a_i = e_i, so C is the inverse Gram matrix; the
    # enveloping system's dual bases a_i (x) b_j, b_i (x) a_j give kron(C, C^T).
    rng = random.Random(5)
    for s in _catalog_systems():
        alg = s.algebra
        tw = twist(s, _random_unit(rng, alg), side=rng.choice(("left", "right")))
        for trace in (s.trace, tw.trace):
            derived = derive_system(alg, trace)
            assert derived.element_matrix == gram_matrix(alg, trace).inverse()
        if alg.dim <= 4:
            for sys_ in (s, tw):
                c = sys_.element_matrix
                assert enveloping_system(sys_).element_matrix == kron(c, c.transpose())


def test_twisted_trace_on_a_noncommutative_algebra():
    # x |-> trace(x d) on the left, trace(d x) on the right.  The group trace
    # of S3 is symmetric, so the base trace is twisted by s to tell the sides
    # apart: it becomes x |-> trace(x s), and r s != s r.
    s3 = group_algebra(symmetric_group_3(), Q).system
    alg = s3.algebra
    one, r, s = (alg.basis_vector(i) for i in (0, 1, 3))
    base = twist(s3, s, side="left")
    basis = [alg.basis_vector(j) for j in range(alg.dim)]
    for d in (r, tuple(map(Q.add, one, r))):
        left, right = twist(base, d, side="left"), twist(base, d, side="right")
        assert left.trace == tuple(_trace_of(base, alg.mul(e, d)) for e in basis)
        assert right.trace == tuple(_trace_of(base, alg.mul(d, e)) for e in basis)
        assert left.trace != right.trace
