"""Stable morphism spaces, shifts, centers and degree-zero Tate groups."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobstab.errors import AlgebraMismatch, BudgetExceeded, NotAGroupAlgebra, NotASubspace
from frobstab.exactfield import Field
from frobstab.algebra import StructureAlgebra
from frobstab.catalog import (
    cyclic_group,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_module,
    truncated_module,
    truncated_polynomial,
)
from frobstab.frobenius import FrobeniusSystem, twist
from frobstab.linalg import Matrix, Subspace, kron
from frobstab.modrep import (
    ModuleRep,
    free_module,
    regular_module,
    validate_module,
)
from frobstab.stab import (
    enveloping_comparison,
    factoring_ideal_oracle,
    frobenius_ideal,
    hom_A,
    null_homotopy_operator,
    shift_minus,
    shift_plus,
    stable_center,
    stable_center_via_enveloping,
    stable_ext,
    stable_hom,
    tate0,
)

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def sign_module(field):
    """One-dimensional representation of the symmetric group on 3 letters
    sending each transposition to -1."""
    alg = group_algebra(symmetric_group_3(), field).algebra
    one = field.one
    m1 = field.from_int(-1)
    vals = (one, one, one, m1, m1, m1)
    action = tuple(Matrix.from_rows(field, [[v]]) for v in vals)
    return ModuleRep(alg, 1, action, name="sign")


def test_module_map_space_dims():
    v1 = truncated_module(3, 1, Q)
    v0 = truncated_module(3, 0, Q)
    v2 = truncated_module(3, 2, Q)
    assert hom_A(v1, v1).dim == 2
    assert hom_A(v0, v2).dim == 1
    assert hom_A(v0, v0).dim == 1


def test_maps_out_of_regular_have_dim_of_target():
    for inst, mods in (
        (truncated_polynomial(3, GF2), [truncated_module(3, i, GF2) for i in range(3)]),
        (group_algebra(symmetric_group_3(), Q), [trivial_module(group_algebra(symmetric_group_3(), Q).algebra)]),
    ):
        reg = regular_module(inst.algebra)
        for m in mods:
            assert hom_A(reg, m).dim == m.dim


def test_schur_for_distinct_simples():
    sgn = sign_module(Q)
    validate_module(sgn)
    triv = trivial_module(group_algebra(symmetric_group_3(), Q).algebra)
    assert hom_A(triv, sgn).dim == 0
    assert hom_A(sgn, sgn).dim == 1


def test_hom_matches_kron_built_kernel():
    # independent route: intertwiners = kernel of the stacked matrices
    # kron(I, rho_N(e_i)) - kron(rho_M(e_i)^T, I) acting on vec(H)
    cases = [
        (truncated_polynomial(3, GF2), truncated_module(3, 1, GF2), truncated_module(3, 2, GF2)),
        (group_algebra(cyclic_group(2), Q), None, None),
    ]
    for inst, m, n_ in cases:
        if m is None:
            m = regular_module(inst.algebra)
            n_ = trivial_module(inst.algebra)
        f = inst.algebra.field
        blocks = []
        im = Matrix.identity(f, m.dim)
        in_ = Matrix.identity(f, n_.dim)
        for i in range(inst.algebra.dim):
            blocks.append(kron(im, n_.action[i]) - kron(m.action[i].transpose(), in_))
        stacked = Matrix.stack_rows(blocks)
        assert stacked.kernel_basis() == hom_A(m, n_)


def test_null_homotopy_operator_footnote_form():
    # over k[x]/(x^2) the operator sends h to x h + h x
    inst = truncated_polynomial(2, GF2)
    reg = regular_module(inst.algebra)
    t = null_homotopy_operator(inst.system, reg, reg)
    rx = reg.action[1]
    i2 = Matrix.identity(GF2, 2)
    assert t == kron(rx.transpose(), i2) + kron(i2, rx)


def test_null_operator_on_one_dimensional_module():
    inst = truncated_polynomial(2, Q)
    v0 = truncated_module(2, 0, Q)
    t = null_homotopy_operator(inst.system, v0, v0)
    assert t.is_zero()


def test_stable_hom_known_values():
    inst = truncated_polynomial(5, GF5)
    v2 = truncated_module(5, 2, GF5)
    res = stable_hom(inst.system, v2, v2)
    assert (res.hom_dim, res.null_dim, res.stable_dim) == (3, 1, 2)
    assert len(res.coset_reps) == 2
    for rep in res.coset_reps:
        assert rep.shape == (3, 3)


def test_projectives_are_stably_zero():
    inst = group_algebra(klein_four_group(), GF2)
    reg = regular_module(inst.algebra)
    triv = trivial_module(inst.algebra)
    assert stable_hom(inst.system, reg, triv).stable_dim == 0
    assert stable_hom(inst.system, triv, reg).stable_dim == 0
    assert stable_hom(inst.system, reg, reg).stable_dim == 0


def test_factoring_oracle_full_for_projective_source():
    inst = truncated_polynomial(3, Q)
    free1 = free_module(inst.algebra, 1)
    for j in range(3):
        vj = truncated_module(3, j, Q)
        oracle = factoring_ideal_oracle(inst.system, free1, vj)
        assert oracle == hom_A(free1, vj)


def test_hom_over_zero_algebra_is_everything():
    # No basis elements means no equations: every linear map is A-linear.
    zero_alg = StructureAlgebra(GF3, 0, [], ())
    m = ModuleRep(zero_alg, 2, ())
    assert hom_A(m, m) == Subspace.full(GF3, 4)


def test_zero_module_edge_case():
    inst = truncated_polynomial(2, Q)
    zero = free_module(inst.algebra, 0)
    v0 = truncated_module(2, 0, Q)
    assert stable_hom(inst.system, zero, v0).stable_dim == 0
    assert stable_hom(inst.system, v0, zero).stable_dim == 0
    assert stable_hom(inst.system, zero, zero).stable_dim == 0


def test_shift_dimensions():
    inst = truncated_polynomial(4, GF2)
    for i in range(4):
        vi = truncated_module(4, i, GF2)
        up = shift_plus(inst.system, vi)
        down = shift_minus(vi)
        assert up.dim == 3 * (i + 1)
        assert down.dim == 3 * (i + 1)
        validate_module(up)
        validate_module(down)


def test_shift_preserves_stable_dims():
    inst = truncated_polynomial(3, GF2)
    pairs = [(1, 1), (1, 2), (0, 2)]
    for i, j in pairs:
        vi = truncated_module(3, i, GF2)
        vj = truncated_module(3, j, GF2)
        base = stable_hom(inst.system, vi, vj).stable_dim
        shifted = stable_hom(
            inst.system, shift_plus(inst.system, vi), shift_plus(inst.system, vj)
        ).stable_dim
        assert shifted == base


def test_shift_of_simple_over_dual_numbers_is_itself():
    inst = truncated_polynomial(2, GF2)
    v0 = truncated_module(2, 0, GF2)
    up = shift_plus(inst.system, v0)
    assert up.dim == 1
    assert up.action == v0.action


def test_ext_degrees():
    inst = truncated_polynomial(2, GF2)
    v0 = truncated_module(2, 0, GF2)
    for d in range(-3, 4):
        assert stable_ext(inst.system, v0, v0, d).stable_dim == 1


def test_adjunction_between_shifts():
    inst = truncated_polynomial(4, GF2)
    for i in range(4):
        for j in range(4):
            vi = truncated_module(4, i, GF2)
            vj = truncated_module(4, j, GF2)
            left = stable_hom(inst.system, shift_minus(vi), vj).stable_dim
            right = stable_hom(inst.system, vi, shift_plus(inst.system, vj)).stable_dim
            assert left == right


@st.composite
def _conjugated_module(draw):
    """V_i over k[x]/(x^n) and the same module in a random basis P."""
    field = draw(st.sampled_from([GF3, Q]))
    n = draw(st.integers(2, 4))
    vi = truncated_module(n, draw(st.integers(0, n - 1)), field)
    entries = draw(st.lists(st.integers(-2, 2), min_size=vi.dim ** 2, max_size=vi.dim ** 2))
    pm = Matrix(field, vi.dim, vi.dim, tuple(map(field.from_int, entries)))
    pm_inv = pm.inverse()
    assume(pm_inv is not None)
    action = tuple(pm_inv @ a @ pm for a in vi.action)
    return truncated_polynomial(n, field), vi, ModuleRep(vi.algebra, vi.dim, action)


@settings(max_examples=12, deadline=None)
@given(_conjugated_module())
def test_shifts_and_ext_are_invariant_under_conjugation(case):
    # Conjugated actions are dense, unlike the permutation-like catalog
    # bases, so shifts build sub- and quotient modules on dense subspaces.
    inst, vi, conj = case
    for steps in (1, 2):
        for shifted, ref in (
            (shift_plus(inst.system, conj, steps), shift_plus(inst.system, vi, steps)),
            (shift_minus(conj, steps), shift_minus(vi, steps)),
        ):
            validate_module(shifted)
            assert shifted.dim == ref.dim
    for d in (-2, -1, 1, 2):
        got = stable_ext(inst.system, conj, conj, d).stable_dim
        assert got == stable_ext(inst.system, vi, vi, d).stable_dim


def test_frobenius_ideal_values():
    inst = truncated_polynomial(3, Q)
    ideal = frobenius_ideal(inst.system)
    assert ideal == Subspace.from_vectors(Q, 3, [(Q.zero, Q.zero, Q.from_int(3))])

    inst3 = truncated_polynomial(3, GF3)
    assert frobenius_ideal(inst3.system).dim == 0

    c2q = group_algebra(cyclic_group(2), Q)
    assert frobenius_ideal(c2q.system).dim == 2

    c2f2 = group_algebra(cyclic_group(2), GF2)
    assert frobenius_ideal(c2f2.system).dim == 0


def test_stable_center_dims():
    cases = [
        (truncated_polynomial(3, Q), 3, 1, 2),
        (truncated_polynomial(3, GF3), 3, 0, 3),
        (truncated_polynomial(4, GF2), 4, 0, 4),
        (group_algebra(cyclic_group(2), Q), 2, 2, 0),
        (group_algebra(symmetric_group_3(), GF2), 3, 1, 2),
    ]
    for inst, zdim, idim, sdim in cases:
        res = stable_center(inst.system)
        assert (res.center_dim, res.ideal_dim, res.stable_center_dim) == (zdim, idim, sdim)


def test_stable_center_structure_constants():
    # Z(k[x]/(x^4)) / ideal: classes of 1, x, x^2 multiply as in k[x]/(x^3)
    inst = truncated_polynomial(4, Q)
    res = stable_center(inst.system)
    assert res.stable_center_dim == 3
    entries = {(s, t, c): v for (s, t, c, v) in res.mult_table}
    nonzero = {k: v for k, v in entries.items() if v}
    assert nonzero == {
        (0, 0, 0): Q.one,
        (0, 1, 1): Q.one,
        (1, 0, 1): Q.one,
        (0, 2, 2): Q.one,
        (2, 0, 2): Q.one,
        (1, 1, 2): Q.one,
    }


def test_stable_center_ideal_properties():
    for inst in (truncated_polynomial(4, Q), group_algebra(symmetric_group_3(), GF3)):
        res = stable_center(inst.system)
        assert res.center.contains_subspace(res.ideal)
        for v in res.ideal.basis_vectors():
            for w in res.center.basis_vectors():
                assert res.ideal.contains(inst.algebra.mul(v, w))


def test_stable_center_both_routes_agree():
    for inst in (
        truncated_polynomial(2, GF2),
        truncated_polynomial(3, Q),
        group_algebra(cyclic_group(2), GF2),
        group_algebra(cyclic_group(2), Q),
    ):
        assert stable_center_via_enveloping(inst.system) == stable_center(inst.system).stable_center_dim


def test_enveloping_comparison_budget():
    inst = group_algebra(symmetric_group_3(), GF2)
    reg = regular_module(inst.algebra)
    with pytest.raises(BudgetExceeded):
        enveloping_comparison(inst.system, reg, reg, budget=100)


def test_enveloping_comparison_small():
    inst = truncated_polynomial(3, Q)
    v1 = truncated_module(3, 1, Q)
    direct, via = enveloping_comparison(inst.system, v1, v1)
    assert direct == via == 1


def test_tate_rejects_non_group_systems():
    inst = truncated_polynomial(3, GF3)
    v0 = truncated_module(3, 0, GF3)
    with pytest.raises(NotAGroupAlgebra):
        tate0(inst.system, v0, v0)


def test_tate_rejects_twisted_group_systems():
    inst = group_algebra(cyclic_group(3), GF3)
    triv = trivial_module(inst.algebra)
    g = inst.algebra.basis_vector(1)
    tw = twist(inst.system, g, side="left")
    with pytest.raises(NotAGroupAlgebra):
        tate0(tw, triv, triv)


def test_tate_of_trivial_module():
    inst = group_algebra(cyclic_group(2), GF2)
    triv = trivial_module(inst.algebra)
    res = tate0(inst.system, triv, triv)
    assert (res.invariants_dim, res.norm_image_dim, res.tate_dim) == (1, 0, 1)

    s3 = group_algebra(symmetric_group_3(), GF3)
    triv3 = trivial_module(s3.algebra)
    res3 = tate0(s3.system, triv3, triv3)
    assert (res3.invariants_dim, res3.norm_image_dim, res3.tate_dim) == (1, 0, 1)


def test_tate_matches_stable_hom():
    for inst in (group_algebra(klein_four_group(), GF2), group_algebra(symmetric_group_3(), Q)):
        triv = trivial_module(inst.algebra)
        reg = regular_module(inst.algebra)
        for m, n_ in ((triv, triv), (triv, reg), (reg, triv), (reg, reg)):
            t = tate0(inst.system, m, n_)
            s = stable_hom(inst.system, m, n_)
            assert t.tate_dim == s.stable_dim
            assert t.invariants_dim == s.hom_dim
            assert t.norm_image_dim == s.null_dim


def test_mismatched_modules_rejected():
    a2 = truncated_polynomial(2, GF2)
    m = truncated_module(2, 0, GF2)
    other = truncated_module(3, 0, GF2)
    with pytest.raises(AlgebraMismatch):
        stable_hom(a2.system, m, other)


def test_null_maps_outside_hom_are_rejected():
    # Non-dual bases a = (1, x), b = (1, 1) give T(h) = (1 + x) h, which is onto
    # Hom_k(V1, V1) and so leaves Hom_A.
    inst = truncated_polynomial(2, GF2)
    one = inst.algebra.basis_vector(0)
    bad = FrobeniusSystem(inst.algebra, inst.system.trace, inst.system.a_basis, (one, one))
    v1 = truncated_module(2, 1, GF2)
    with pytest.raises(NotASubspace) as err:
        stable_hom(bad, v1, v1)
    assert err.value.witness == 0


def test_tate_rejects_norm_image_outside_invariants():
    # g acting by a unipotent Jordan block over GF(3) does not square to 1,
    # so this unvalidated "module" has norm maps that are not invariant.
    inst = group_algebra(cyclic_group(2), GF3)
    jordan = Matrix.from_rows(GF3, [[1, 1], [0, 1]])
    m = ModuleRep(inst.algebra, 2, (Matrix.identity(GF3, 2), jordan))
    with pytest.raises(NotASubspace):
        tate0(inst.system, m, m)
