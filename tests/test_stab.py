"""Stable morphism spaces, shifts, centers and degree-zero Tate groups."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobstab import linalg, modrep, stab
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
from frobstab.frobenius import FrobeniusSystem, derive_system, twist
from frobstab.linalg import Matrix, Subspace, kron, kron_sum
from frobstab.modrep import (
    MAX_FREE_ENTRIES,
    ModuleRep,
    bimodule_regular,
    canonical_embedding,
    free_module,
    hom_bimodule,
    multiplication_surjection,
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
from helpers import exact_kernel, full_subspace, quotient_action, restricted_action

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


def _full_basis_hom(m, n_):
    """Independent route: intertwiners as the kernel of the stacked blocks
    kron(I, rho_N(e_i)) - kron(rho_M(e_i)^T, I) over every basis element."""
    f = m.algebra.field
    im = Matrix.identity(f, m.dim)
    in_ = Matrix.identity(f, n_.dim)
    blocks = [
        kron(im, rn) - kron(rm.transpose(), in_) for rn, rm in zip(n_.action, m.action)
    ]
    return Matrix.stack_rows(blocks).kernel_basis()


def _random_conjugate(draw, m):
    """The module m in a random basis P, drawn until P is invertible."""
    f = m.algebra.field
    entries = draw(st.lists(st.integers(-2, 2), min_size=m.dim ** 2, max_size=m.dim ** 2))
    pm = Matrix(f, m.dim, m.dim, tuple(map(f.from_int, entries)))
    pm_inv = pm.inverse()
    assume(pm_inv is not None)
    return ModuleRep(m.algebra, m.dim, tuple(pm_inv @ a @ pm for a in m.action), name=m.name)


@st.composite
def _hom_case(draw):
    """A pair of modules (M, N): conjugated truncated modules, group algebra
    regular/trivial modules, or a Hom bimodule over the enveloping algebra."""
    kind = draw(st.sampled_from(["trunc", "group", "bimodule"]))
    if kind == "group":
        group = draw(st.sampled_from([klein_four_group(), symmetric_group_3()]))
        alg = group_algebra(group, draw(st.sampled_from([GF2, GF3, Q]))).algebra
        mods = [regular_module(alg), trivial_module(alg)]
        return draw(st.sampled_from(mods)), draw(st.sampled_from(mods))
    field = draw(st.sampled_from([GF3, Q]))
    n = draw(st.integers(1, 4 if kind == "trunc" else 3))
    m, n_ = (truncated_module(n, draw(st.integers(0, n - 1)), field) for _ in range(2))
    if kind == "trunc":
        return _random_conjugate(draw, m), _random_conjugate(draw, n_)
    bim = hom_bimodule(m, n_)
    return draw(st.sampled_from([(bimodule_regular(m.algebra), bim), (bim, bim)]))


@settings(max_examples=60, deadline=None)
@given(_hom_case())
def test_hom_matches_kron_built_kernel(case):
    # The generating-set system has the same kernel as the full-basis one.
    m, n_ = case
    assert hom_A(m, n_) == _full_basis_hom(m, n_)


def test_hom_solves_one_block_per_generator(monkeypatch):
    # One Kronecker sum per generator goes to kron_kernel: k[x]/(x^24) is
    # generated by x (one 576x576 sum, not 24), klein4 and s3 by two
    # elements, and s3^env by four.  No Kronecker product is built.
    s3 = group_algebra(symmetric_group_3(), GF3).algebra
    cases = [
        (regular_module(truncated_polynomial(24, GF2).algebra), [(576, 576)]),
        (regular_module(group_algebra(klein_four_group(), GF2).algebra), [(16, 16)] * 2),
        (regular_module(s3), [(36, 36)] * 2),
        (bimodule_regular(s3), [(36, 36)] * 4),
    ]
    shapes = []
    orig = stab.kron_kernel

    def record(field, nrows, ncols, *sums):
        sums = [list(pairs) for pairs in sums]
        for pairs in sums:
            assert len(pairs) == 2
            shapes.append((nrows, ncols))
            for a, b in pairs:
                assert (a.nrows * b.nrows, a.ncols * b.ncols) == (nrows, ncols)
        return orig(field, nrows, ncols, *sums)

    def no_kron(a, b):
        raise AssertionError("hom_A built a Kronecker product")

    for m, _ in cases:
        assert m.algebra.generators  # computed outside the recorded calls
    monkeypatch.setattr(stab, "kron_kernel", record)
    monkeypatch.setattr(linalg, "kron", no_kron)
    monkeypatch.setattr(modrep, "kron", no_kron)
    for m, want in cases:
        shapes.clear()
        hom_A(m, m)
        assert shapes == want


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
    assert not any(t.entries)


def _dual_basis_operator(system, m, n_):
    """T = sum_i kron(action_M(b_i)^T, action_N(a_i)), straight from the bases."""
    amb = n_.dim * m.dim
    return kron_sum(system.algebra.field, amb, amb, [
        (m.action_of(b_i).transpose(), n_.action_of(a_i))
        for a_i, b_i in zip(system.a_basis, system.b_basis)
    ])


def _dual_basis_embedding(system, m):
    """phi = sum_i kron(a_i as a column, action_M(b_i))."""
    f, n = system.algebra.field, system.algebra.dim
    return kron_sum(f, n * m.dim, m.dim, [
        (Matrix(f, n, 1, a_i), m.action_of(b_i))
        for a_i, b_i in zip(system.a_basis, system.b_basis)
    ])


def _dual_basis_ideal(system):
    """Image of z |-> sum_i a_i z b_i."""
    alg = system.algebra
    acc = Matrix.zeros(alg.field, alg.dim, alg.dim)
    for a_i, b_i in zip(system.a_basis, system.b_basis):
        acc = acc + alg.left_mult_matrix(a_i) @ alg.right_mult_matrix(b_i)
    return acc.image_basis()


def test_operators_from_frobenius_matrix_match_dual_basis_sums():
    # Twisted group systems have a dense Frobenius matrix C, so every row c_p
    # enters T, phi and the ideal; the 0-dimensional algebra has empty sums.
    cases = []
    for field, left, right in (
        (Q, (1, 2, 0, 1, 0, 3), (2, 0, 1, 1, 1, 0)),
        (GF5, (2, 1, 2, 0, 0, 2), (0, 0, 0, 2, 2, 0)),
    ):
        inst = group_algebra(symmetric_group_3(), field)
        left, right = (tuple(map(field.from_int, d)) for d in (left, right))
        system = twist(twist(inst.system, left, side="left"), right, side="right")
        assert all(system.element_matrix.entries)
        alg = inst.algebra
        cases.append((system, [trivial_module(alg), sign_module(field), regular_module(alg)]))
    tw = twist(truncated_polynomial(4, Q).system, (Q.one, Q.from_int(2), Q.one, Q.from_int(3)))
    cases.append((tw, [truncated_module(4, i, Q) for i in range(4)]))
    alg0 = StructureAlgebra(Q, 0, [], ())
    cases.append((derive_system(alg0, ()), [ModuleRep(alg0, 0, ())]))
    for system, mods in cases:
        assert frobenius_ideal(system) == _dual_basis_ideal(system)
        for m in mods:
            assert canonical_embedding(system, m) == _dual_basis_embedding(system, m)
            for n_ in mods:
                t = null_homotopy_operator(system, m, n_)
                assert t == _dual_basis_operator(system, m, n_)


@st.composite
def _conjugated_pair_over_q(draw):
    """(system, M, N, is a group algebra): conjugated truncated modules, or
    conjugated trivial/sign/regular modules of a group algebra, over Q."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        inst = truncated_polynomial(n, Q)
        mods = [truncated_module(n, draw(st.integers(0, n - 1)), Q) for _ in range(2)]
        group = False
    else:
        s3 = draw(st.booleans())
        inst = group_algebra(symmetric_group_3() if s3 else klein_four_group(), Q)
        pool = [trivial_module(inst.algebra), regular_module(inst.algebra)]
        pool += [sign_module(Q)] if s3 else []
        mods = [draw(st.sampled_from(pool)) for _ in range(2)]
        group = True
    m, n_ = (_random_conjugate(draw, x) for x in mods)
    return inst.system, m, n_, group


def _exact_kernel(field, nrows, ncols, *sums):
    """The kernel of the row stack of the exact dense sums, by exact
    elimination (`exact_kernel`)."""
    blocks = [kron_sum(field, nrows, ncols, pairs) for pairs in sums]
    stacked = Matrix.stack_rows([Matrix.zeros(field, 0, ncols)] + blocks)
    return exact_kernel(field, stacked.to_rows(), ncols)


def _exact_image(field, nrows, ncols, pairs):
    return kron_sum(field, nrows, ncols, pairs).image_basis()


@settings(max_examples=30, deadline=None)
@given(_conjugated_pair_over_q())
def test_integer_assembly_matches_exact_kron_sums(case):
    # hom_A, the image of T and the tate0 norm call kron_kernel and
    # kron_image, which start from the D-scaled integer Kronecker sums; the
    # exact sums, reduced exactly, must give the same subspaces.
    system, m, n_, group = case

    def results():
        return (hom_A(m, n_), stable_hom(system, m, n_),
                tate0(system, m, n_) if group else None)

    fast = results()
    with mock.patch.object(stab, "kron_kernel", _exact_kernel), \
            mock.patch.object(stab, "kron_image", _exact_image):
        slow = results()
    assert fast == slow
    t = null_homotopy_operator(system, m, n_)
    assert t == _dual_basis_operator(system, m, n_)
    assert all(type(x) is Fraction for x in t.entries)
    assert fast[1].null_basis == t.image_basis()


def test_hom_over_q_takes_the_certified_route():
    # dense_q's V6' -> V6': V6 over k[x]/(x^10), Q, in a random basis with
    # entries in [-3, 3].  With the exact elimination made to raise, hom_A
    # still answers, so its kernel was solved mod P and certified, with no
    # fallback; the answer is the exact one.
    rng = random.Random(1)
    v6 = truncated_module(10, 6, Q)
    pm_inv = None
    while pm_inv is None:
        pm = Matrix(Q, 7, 7, tuple(Q.from_int(rng.randint(-3, 3)) for _ in range(49)))
        pm_inv = pm.inverse()
    conj = ModuleRep(v6.algebra, 7, tuple(pm_inv @ a @ pm for a in v6.action), name="V6'")
    assert conj.algebra.generators  # computed outside the patch

    def refuse(*args):
        raise AssertionError("the certified kernel fell back to _rref_rational")

    with mock.patch.object(linalg, "_rref_rational", refuse):
        got = hom_A(conj, conj)
    with mock.patch.object(stab, "kron_kernel", _exact_kernel):
        want = hom_A(conj, conj)
    assert got == want and got.dim == 7
    assert any(x.denominator > 1 for x in got.basis.entries)


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
    assert hom_A(m, m) == full_subspace(GF3, 4)


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


def test_each_shift_step_builds_one_free_module(monkeypatch):
    """A shift step builds the free module A (x) M_0 once, for the quotient:
    the canonical embedding reads its blocks and builds no free module."""
    dims = []

    def counting_free_module(a, k):
        dims.append(a.dim * k)
        return free_module(a, k)

    monkeypatch.setattr(stab, "free_module", counting_free_module)
    monkeypatch.setattr(modrep, "free_module", counting_free_module)
    inst = truncated_polynomial(4, GF2)
    v1 = truncated_module(4, 1, GF2)
    assert shift_plus(inst.system, v1, 3).dim == 54
    assert dims == [8, 24, 72]
    dims.clear()
    factoring_ideal_oracle(inst.system, v1, v1)
    assert dims == [8]


def test_shifts_read_no_dense_vector_route(monkeypatch):
    """Shift steps build their sub- and quotient modules from sparse
    columns: with the dense per-vector reads disabled they still give the
    modules of the dense oracle route."""
    inst = truncated_polynomial(4, GF2)
    up = down = truncated_module(4, 1, GF2)
    for _ in range(3):
        free = free_module(inst.algebra, up.dim)
        image = canonical_embedding(inst.system, up).image_basis()
        up = ModuleRep(inst.algebra, free.dim - image.dim, quotient_action(free, image))
        free = free_module(inst.algebra, down.dim)
        kernel = multiplication_surjection(down).kernel_basis()
        down = ModuleRep(inst.algebra, kernel.dim, restricted_action(free, kernel))

    def dense(*args):
        raise AssertionError("dense per-vector route")

    assert inst.algebra.generators  # computed once per algebra, outside the shifts
    for cls, name in ((Matrix, "apply"), (Subspace, "coords"), (Subspace, "reduce")):
        monkeypatch.setattr(cls, name, dense)
    v1 = truncated_module(4, 1, GF2)
    assert shift_plus(inst.system, v1, 3).action == up.action
    assert shift_minus(v1, 3).action == down.action


def test_ext_five_over_k_x4():
    """Stable Ext^{+-5}(V0, V1) over k[x]/(x^4), GF(2), through shifts of
    V1 to dim 2 * 3^5 = 486: Omega^{+-1} V1 is V1 up to projective summands,
    so both are the stable Hom(V0, V1) of dim 1."""
    inst = truncated_polynomial(4, GF2)
    v0, v1 = truncated_module(4, 0, GF2), truncated_module(4, 1, GF2)
    for d in (5, -5):
        res = stable_ext(inst.system, v0, v1, d)
        assert (res.hom_dim, res.null_dim, res.stable_dim) == (122, 121, 1)


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


def _in_basis(inst, pm):
    """The same algebra and trace in the basis whose j-th vector is column j
    of the invertible matrix pm."""
    alg, f = inst.algebra, inst.algebra.field
    to_new = pm.inverse()
    cols = [pm.col(j) for j in range(alg.dim)]
    entries = [
        (a, b, c, v)
        for a in range(alg.dim) for b in range(alg.dim)
        for c, v in enumerate(to_new.apply(alg.mul(cols[a], cols[b]))) if v
    ]
    new = StructureAlgebra.from_entries(f, alg.dim, entries, to_new.apply(alg.unit))
    return derive_system(new, pm.transpose().apply(inst.system.trace))


def test_stable_center_matches_per_product_solve():
    # Oracle: solve for each product of representatives in the basis reps + ideal.
    # In the basis 1, x, x^2, x^2 + x^3 of k[x]/(x^4) the ideal, spanned by
    # x^3, is not a row of the center's canonical basis.
    skew = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    for system in (
        truncated_polynomial(4, GF2).system,
        truncated_polynomial(6, GF3).system,
        truncated_polynomial(5, Q).system,
        group_algebra(klein_four_group(), GF2).system,
        group_algebra(symmetric_group_3(), GF3).system,
        _in_basis(truncated_polynomial(4, Q), skew),
    ):
        alg = system.algebra
        ideal = frobenius_ideal(system)
        reps = alg.center_basis().complement_of(ideal)
        span = Matrix.from_rows(alg.field, reps + ideal.basis_vectors(), ncols=alg.dim)
        table = []
        for s, r in enumerate(reps):
            for t, r2 in enumerate(reps):
                x = span.transpose().solve(alg.mul(r, r2))
                table += [(s, t, c, x[c]) for c in range(len(reps)) if x[c]]
        res = stable_center(system)
        assert (res.reps, res.ideal, res.mult_table) == (reps, ideal, table)


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
    """Hom_k(R, R) for the regular module R of k[x]/(x^12) needs
    144 * 144^2 (about 3.0M) entries; it is refused before anything is solved."""
    inst = truncated_polynomial(12, GF2)
    reg = regular_module(inst.algebra)
    assert inst.algebra.dim ** 2 * 144 ** 2 > MAX_FREE_ENTRIES
    unsolved = mock.patch.object(stab, "stable_hom", side_effect=AssertionError("solved"))
    with unsolved, pytest.raises(BudgetExceeded) as exc:
        enveloping_comparison(inst.system, reg, reg)
    assert exc.value.witness == 144


def test_enveloping_size_is_bounded():
    """A (x) A^op and A's bimodule action hold dim(A)^4 entries: dim(A) = 37
    is under the bound and 38 over it, refused with witness dim(A)^2."""
    assert 37 ** 4 <= MAX_FREE_ENTRIES < 38 ** 4
    inst = truncated_polynomial(38, GF2)
    for route in (stable_center_via_enveloping, lambda s: bimodule_regular(s.algebra)):
        with pytest.raises(BudgetExceeded) as exc:
            route(inst.system)
        assert exc.value.witness == 38 ** 2


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
