"""Stable morphism spaces, shifts, centers and degree-zero Tate groups."""

from __future__ import annotations

import collections
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobstab import algebra, linalg, modrep, stab
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
from frobstab.frobenius import FrobeniusSystem, derive_system, element_inverse, gram_matrix, twist
from frobstab.linalg import Matrix, Subspace, kron, kron_sum
from frobstab.modrep import (
    MAX_FREE_ENTRIES,
    ModuleRep,
    bimodule_regular,
    canonical_embedding,
    direct_sum,
    free_module,
    hom_bimodule,
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
from helpers import (
    assert_stored_rows, dense_vectors, exact_kernel, frobenius_ideal_by_definition, full_subspace,
    hom_by_back_matrix, hom_by_generators, in_basis, integer_rows, kron_sum_by_definition,
    module_in_basis, multiplication_surjection, norm_image_by_full_columns, dual_bases,
    null_by_full_operator, quantum_exterior, quantum_exterior_module, quotient_action,
    random_basis, reduce_by_definition, restricted_action, stack_rows, unvec, zeros,
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


def _full_basis_hom(m, n_):
    """Independent route: intertwiners as the kernel of the stacked blocks
    kron(I, rho_N(e_i)) - kron(rho_M(e_i)^T, I) over every basis element."""
    f = m.algebra.field
    im = Matrix.identity(f, m.dim)
    in_ = Matrix.identity(f, n_.dim)
    blocks = [
        kron(im, rn) - kron(rm.transpose(), in_) for rn, rm in zip(n_.action, m.action)
    ]
    return stack_rows(blocks).kernel_basis()


def _random_conjugate(draw, m):
    """The module m in a random basis P, drawn until P is invertible."""
    f = m.algebra.field
    entries = draw(st.lists(st.integers(-2, 2), min_size=m.dim ** 2, max_size=m.dim ** 2))
    pm = Matrix.dense(f, m.dim, m.dim, tuple(map(f.from_int, entries)))
    pm_inv = pm.inverse()
    assume(pm_inv is not None)
    return ModuleRep(m.algebra, m.dim, tuple(pm_inv @ a @ pm for a in m.action), name=m.name)


@st.composite
def _hom_case(draw):
    """A pair of modules (M, N): conjugated truncated modules, group algebra
    regular/trivial modules, a Hom bimodule over the enveloping algebra,
    direct sums with a repeated summand (two or three seeds), free modules,
    once-shifted modules (Omega^{+-1}), or modules over Lambda_q, which is
    neither symmetric nor commutative."""
    kind = draw(st.sampled_from(["trunc", "group", "bimodule", "sum", "free", "shift", "lambda"]))
    if kind == "lambda":
        system = quantum_exterior(draw(st.sampled_from([2, 3, Fraction(1, 2)])))
        pool = [quantum_exterior_module(system.algebra, lam) for lam in (1, 2, Fraction(1, 2), None)]
        pool.append(regular_module(system.algebra))
        m, n_ = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if draw(st.booleans()):
            m = draw(st.sampled_from([shift_plus(system, m), shift_minus(m)]))
        return m, n_
    if kind == "group":
        group = draw(st.sampled_from([klein_four_group(), symmetric_group_3()]))
        alg = group_algebra(group, draw(st.sampled_from([GF2, GF3, Q]))).algebra
        mods = [regular_module(alg), trivial_module(alg)]
        return draw(st.sampled_from(mods)), draw(st.sampled_from(mods))
    field = draw(st.sampled_from([GF3, Q]))
    n = draw(st.integers(1, 4 if kind == "trunc" else 3))
    inst = truncated_polynomial(n, field)
    m, n_ = (truncated_module(n, draw(st.integers(0, n - 1)), field) for _ in range(2))
    if kind == "trunc":
        return _random_conjugate(draw, m), _random_conjugate(draw, n_)
    if kind == "sum":
        other = truncated_module(n, draw(st.integers(0, n - 1)), field)
        total = direct_sum(draw(st.sampled_from([[m, m], [m, other, m]])))
        return draw(st.sampled_from([(total, n_), (n_, total), (total, total)]))
    if kind == "free":
        free = free_module(inst.algebra, draw(st.integers(0, 2)))
        return draw(st.sampled_from([(free, n_), (n_, free), (free, free)]))
    if kind == "shift":
        shifted = draw(st.sampled_from([shift_plus(inst.system, m), shift_minus(m)]))
        return draw(st.sampled_from([(shifted, n_), (n_, shifted), (shifted, shifted)]))
    bim = hom_bimodule(m, n_)
    return draw(st.sampled_from([(bimodule_regular(m.algebra), bim), (bim, bim)]))


@settings(max_examples=80, deadline=None)
@given(_hom_case())
def test_hom_matches_kron_built_kernel(case):
    # The system on M's presentation has the same kernel, as the same
    # canonical subspace, as the full-basis system and as the system of
    # one Kronecker sum per generator of A over all of Hom_k(M, N).
    m, n_ = case
    got = hom_A(m, n_)
    assert got == hom_by_generators(m, n_)
    assert got == _full_basis_hom(m, n_)


@st.composite
def _back_map_case(draw):
    """A pair (M, N): a `_hom_case` pair, or a pair among V_i, the zero
    module and a direct sum of two or three V_i in a random basis, over
    GF(2), GF(3), GF(5) or Q.  That sum has several seeds, and a column
    of some S_q of its presentation has several nonzeros."""
    if draw(st.booleans()):
        return draw(_hom_case())
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    n = draw(st.integers(1, 3))
    parts = [truncated_module(n, draw(st.integers(0, n - 1)), field)
             for _ in range(draw(st.integers(2, 3)))]
    pool = [free_module(truncated_polynomial(n, field).algebra, 0), parts[0],
            _random_conjugate(draw, direct_sum(parts))]
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


def _stored(space):
    return repr((space.ambient, list(space.rows.items())))


@settings(max_examples=120, deadline=None)
@given(_back_map_case())
def test_hom_maps_kernel_rows_as_the_back_matrix_does(case):
    # Each stored kernel row, mapped straight to vec(H), is the row that
    # the back map B = kron(E, I) + sum_q kron(S_q, rho_N(e_q)), built as
    # a matrix and multiplied, gives: the same stored rows, with the same
    # columns in the same order, in the same pivot order.
    m, n_ = case
    assert _stored(hom_A(m, n_)) == _stored(hom_by_back_matrix(m, n_))


def test_hom_maps_kernel_rows_with_no_matrix_product(monkeypatch):
    # A direct sum of V1 and V2 over k[x]/(x^3) in a random basis, over
    # GF(5) and Q: two seeds, and a seed whose preimage terms reach two
    # basis vectors through one e_q, so a column of S_q has two nonzeros.
    # hom_A maps its kernel rows with no Matrix product, as the back
    # matrix oracle agrees, and over the zero algebra it is everything.
    for field in (GF5, Q):
        m = _conjugated(direct_sum([truncated_module(3, i, field) for i in (1, 2)]), 3)
        n_ = _conjugated(truncated_module(3, 2, field), 4)
        _, by_seed = m._presentation.preimages
        column_sizes = collections.Counter((j, q) for j, terms in enumerate(by_seed)
                                           for _, q, _ in terms)
        assert len(by_seed) == 2 and max(column_sizes.values()) >= 2
        products = []
        matmul = Matrix.__matmul__
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
            got = [hom_A(x, y) for x in (m, n_) for y in (m, n_)]
        assert products == []
        assert [_stored(h) for h in got] == [_stored(hom_by_back_matrix(x, y))
                                             for x in (m, n_) for y in (m, n_)]
    zero_alg = StructureAlgebra(GF3, 0, [], ())
    x = ModuleRep(zero_alg, 2, ())
    assert _stored(hom_A(x, x)) == _stored(hom_by_back_matrix(x, x)) == _stored(full_subspace(GF3, 4))


def test_hom_solves_one_block_per_generator(monkeypatch):
    # One block of dim N rows per relation generator of M's presentation
    # goes to one kron_kernel, over s * dim N unknowns: the regular module
    # of k[x]/(x^24) is free on one seed (24 unknowns, no relation rows),
    # V0 over k[x]/(x^4) has the one relation x, the regular modules of
    # klein4 and s3 are free, and A as an s3 bimodule is generated by 1
    # with two relations.  No Kronecker product is built.
    s3 = group_algebra(symmetric_group_3(), GF3).algebra
    v0 = truncated_module(4, 0, GF2)
    cases = [
        (regular_module(truncated_polynomial(24, GF2).algebra), (0, 24)),
        (v0, (1, 1)),
        (regular_module(group_algebra(klein_four_group(), GF2).algebra), (0, 4)),
        (regular_module(s3), (0, 6)),
        (bimodule_regular(s3), (12, 6)),
    ]
    shapes = []
    orig = stab.kron_kernel

    def record(field, nrows, ncols, *sums):
        sums = [list(terms) for terms in sums]
        assert len(sums) == 1
        shapes.append((nrows, ncols))
        for _, a, b in sums[0]:
            assert (a.nrows * b.nrows, a.ncols * b.ncols) == (nrows, ncols)
        return orig(field, nrows, ncols, *sums)

    def no_kron(a, b):
        raise AssertionError("hom_A built a Kronecker product")

    monkeypatch.setattr(stab, "kron_kernel", record)
    monkeypatch.setattr(linalg, "kron", no_kron)
    monkeypatch.setattr(modrep, "kron", no_kron)
    for m, want in cases:
        shapes.clear()
        assert hom_A(m, m).dim == hom_by_generators(m, m).dim
        assert shapes == [want]
    assert (v0._presentation.seeds, v0._presentation.count) == ((0,), 1)


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
        (1, m.action_of(b_i).transpose(), n_.action_of(a_i))
        for a_i, b_i in zip(*dual_bases(system))
    ])


def _dual_basis_embedding(system, m):
    """phi = sum_i kron(a_i as a column, action_M(b_i))."""
    f, n = system.algebra.field, system.algebra.dim
    return kron_sum(f, n * m.dim, m.dim, [
        (1, Matrix.dense(f, n, 1, a_i), m.action_of(b_i))
        for a_i, b_i in zip(*dual_bases(system))
    ])


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
        assert frobenius_ideal(system) == frobenius_ideal_by_definition(system)
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
    """The kernel of the row stack of the dense sums, each built entry by
    entry (`kron_sum_by_definition`), by exact elimination (`exact_kernel`)."""
    blocks = [kron_sum_by_definition(field, nrows, ncols, terms) for terms in sums]
    stacked = stack_rows([zeros(field, 0, ncols)] + blocks)
    return exact_kernel(field, integer_rows(stacked.to_rows()), ncols)


def _exact_image(field, nrows, ncols, terms):
    return kron_sum_by_definition(field, nrows, ncols, terms).image_basis()


@settings(max_examples=30, deadline=None)
@given(_conjugated_pair_over_q())
def test_integer_assembly_matches_exact_kron_sums(case):
    # hom_A, the image of T and the tate0 norm call kron_kernel and
    # kron_image, which start from the D-scaled integer Kronecker rows; the
    # sums built entry by entry, reduced exactly, must give the same
    # subspaces.
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


def _conjugated(m, seed):
    """m in a random basis with entries in [-3, 3], drawn from `seed`."""
    rng = random.Random(seed)
    f = m.algebra.field
    pm_inv = None
    while pm_inv is None:
        pm = Matrix.dense(f, m.dim, m.dim, tuple(f.from_int(rng.randint(-3, 3))
                                                 for _ in range(m.dim ** 2)))
        pm_inv = pm.inverse()
    return ModuleRep(m.algebra, m.dim, tuple(pm_inv @ a @ pm for a in m.action), name=m.name + "'")


@settings(max_examples=30, deadline=None)
@given(_conjugated_pair_over_q())
def test_hom_and_null_over_q_store_primitive_integer_rows(case):
    # hom_A maps its integer kernel rows straight to Hom_A and divides
    # each image by its content; they, and the null space's rows, are
    # the canonical stored rows that from_vectors gives on the same span.
    system, m, n_, _ = case
    result = stable_hom(system, m, n_)
    for space in (result.hom_basis, result.null_basis):
        assert_stored_rows(space.rows)
        assert space == Subspace.from_vectors(Q, space.ambient, space.basis_vectors())


def test_inclusion_checks_over_q_build_no_fraction(monkeypatch):
    # The null space of a conjugated V6 -> V3 over k[x]/(x^10), Q, lies in
    # Hom_A; checking that runs in integers.  contains_subspace and
    # quotient_dim build no Fraction, and complement_of builds only the
    # entries of the RREF rows it hands out as coset representatives.  A
    # subspace with a vector outside Hom_A still raises NotASubspace,
    # witnessed by its first basis row outside, as the dense definition
    # (`reduce_by_definition`) finds it.
    inst = truncated_polynomial(10, Q)
    m = _conjugated(truncated_module(10, 6, Q), 1)
    n_ = _conjugated(truncated_module(10, 3, Q), 2)
    result = stable_hom(inst.system, m, n_)
    hom, null = result.hom_basis, result.null_basis
    assert null.dim and result.stable_dim
    made = []

    class Counting(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", Counting)
    assert hom.contains_subspace(null)
    assert hom.quotient_dim(null) == result.stable_dim
    assert made == []
    reps = hom.complement_of(null)[0]
    assert len(made) == sum(len(r) for r in reps) and len(reps) == result.stable_dim
    monkeypatch.undo()

    # Hom_A's first RREF row, which is zero at its second pivot, and the
    # unit vector there, outside Hom_A: the second basis row is the witness.
    amb, second = hom.ambient, hom.pivots[1]
    outside = tuple(Q.one if j == second else Q.zero for j in range(amb))
    bad = Subspace.from_vectors(Q, amb, [hom.basis_vectors()[0], outside])
    want = [t for t, v in enumerate(bad.basis_vectors()) if any(reduce_by_definition(hom, v))]
    assert want[0] == 1
    for check in (hom.quotient_dim, hom.complement_of):
        with pytest.raises(NotASubspace) as raised:
            check(bad)
        assert raised.value.witness == want[0]
    assert not hom.contains_subspace(bad)


def test_stable_hom_builds_its_representatives_with_no_fraction(monkeypatch):
    # The coset representatives of a conjugated V6 -> V3 over k[x]/(x^10),
    # Q, are built from the stored rows of Hom_A over their pivot entries
    # (`linalg._over_pivots`).  With Hom_A and the image of T computed
    # beforehand, stable_hom builds no Fraction, and each representative
    # is the map H whose vec(H) is a kept RREF row of `complement_of`.
    inst = truncated_polynomial(10, Q)
    m = _conjugated(truncated_module(10, 6, Q), 1)
    n_ = _conjugated(truncated_module(10, 3, Q), 2)
    first = stable_hom(inst.system, m, n_)
    hom, null = first.hom_basis, first.null_basis
    made = []

    class Counting(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    with monkeypatch.context() as patch:
        patch.setattr(stab, "hom_A", lambda *args: hom)
        patch.setattr(stab, "kron_image", lambda *args: null)
        patch.setattr(linalg, "Fraction", Counting)
        result = stable_hom(inst.system, m, n_)
    assert made == []
    rows = dense_vectors(Q, hom.ambient, hom.complement_of(null)[0])
    assert result.coset_reps == first.coset_reps == [unvec(Q, v, n_.dim, m.dim) for v in rows]
    assert len(rows) == result.stable_dim > 0
    assert any(x.denominator > 1 for rep in result.coset_reps for x in rep.entries)


def test_hom_of_a_dense_regular_module_over_q():
    # The regular module of k[x]/(x^12) over Q in a random basis: on its
    # presentation it is one seed and 12 unknowns, and Hom_A(M, M) is
    # the 12 matrices that commute with the action of x.
    inst = truncated_polynomial(12, Q)
    conj = _conjugated(regular_module(inst.algebra), 1)
    hom = hom_A(conj, conj)
    assert hom.dim == 12
    x = conj.action[1]
    for h in hom.basis_vectors():
        h_mat = unvec(Q, h, 12, 12)
        assert h_mat @ x == x @ h_mat


@st.composite
def _null_case(draw):
    """(system, M, N): truncated modules V_i over GF(2), GF(3), GF(5) or Q,
    V_i conjugated over Q, direct sums with a repeated summand, Omega^{+-1}
    of V_i, or modules over Lambda_q (q = 2, 3, 1/2) with its regular
    module and their shifts.  Lambda_q is not symmetric, so the Nakayama
    automorphism in the spanning argument of `stable_hom` is not the
    identity."""
    kind = draw(st.sampled_from(["trunc", "conjugated", "sum", "shift", "lambda"]))
    if kind == "lambda":
        system = quantum_exterior(draw(st.sampled_from([2, 3, Fraction(1, 2)])))
        pool = [quantum_exterior_module(system.algebra, lam) for lam in (1, 2, Fraction(1, 2), None)]
        pool.append(regular_module(system.algebra))
        pair = [draw(st.sampled_from(pool)) for _ in range(2)]
        for k, x in enumerate(pair):
            if draw(st.booleans()):
                pair[k] = draw(st.sampled_from([shift_plus(system, x), shift_minus(x)]))
        return system, *pair
    field = Q if kind == "conjugated" else draw(st.sampled_from([GF2, GF3, GF5, Q]))
    n = draw(st.integers(1, 5))
    inst = truncated_polynomial(n, field)
    m, n_ = (truncated_module(n, draw(st.integers(0, n - 1)), field) for _ in range(2))
    if kind == "conjugated":
        m, n_ = _random_conjugate(draw, m), _random_conjugate(draw, n_)
    elif kind == "sum":
        other = truncated_module(n, draw(st.integers(0, n - 1)), field)
        total = direct_sum(draw(st.sampled_from([[m, m], [m, other, m]])))
        m, n_ = draw(st.sampled_from([(total, n_), (n_, total), (total, total)]))
    elif kind == "shift":
        shifted = draw(st.sampled_from([shift_plus(inst.system, m), shift_minus(m)]))
        m, n_ = draw(st.sampled_from([(shifted, n_), (n_, shifted), (shifted, shifted)]))
    return inst.system, m, n_


@settings(max_examples=80, deadline=None)
@given(_null_case())
def test_null_basis_matches_the_full_operator(case):
    # The image of T spanned on the s' dim N columns of M's dual seeds is
    # the canonical subspace that all dim M dim N columns of T span.
    system, m, n_ = case
    res = stable_hom(system, m, n_)
    assert res.null_basis == null_by_full_operator(system, m, n_)
    assert res.hom_basis == hom_by_generators(m, n_)


def test_norm_image_matches_the_full_columns(monkeypatch):
    # The norm image of tate0, spanned on M's dual seeds, is the subspace
    # that all dim M dim N columns span: klein4, s3 and C3 over every
    # field, on the trivial, regular and sign modules and a direct sum.
    images = []

    def record(*args):
        images.append(linalg.kron_image(*args))
        return images[-1]

    monkeypatch.setattr(stab, "kron_image", record)
    for group, signed in ((klein_four_group(), False), (symmetric_group_3(), True),
                          (cyclic_group(3), False)):
        for field in (GF2, GF3, GF5, Q):
            inst = group_algebra(group, field)
            triv, reg = trivial_module(inst.algebra), regular_module(inst.algebra)
            mods = [triv, reg, direct_sum([triv, reg, triv])] + [sign_module(field)] * signed
            for m in mods:
                for n_ in mods:
                    images.clear()
                    tate0(inst.system, m, n_)
                    assert images == [norm_image_by_full_columns(inst.system, m, n_)]


def test_dual_seeds_of_truncated_modules():
    # The dual of V_i over k[x]/(x^n) is generated by its last functional
    # e_i^*, which the reverse-order search keeps first; in basis order
    # every functional would be kept.
    for field in (GF2, Q):
        for n in range(1, 6):
            for i in range(n):
                assert truncated_module(n, i, field)._dual_seeds == (i,)


def test_stable_hom_spans_t_on_the_dual_seeds(monkeypatch):
    # The regular module of k[x]/(x^12) over Q in a random basis has one
    # dual seed, so T's image is spanned by 12 columns, not 144.  It is
    # projective, so every A-map is null-homotopic.
    inst = truncated_polynomial(12, Q)
    conj = _conjugated(regular_module(inst.algebra), 1)
    shapes = []

    def record(field, nrows, ncols, terms):
        shapes.append((nrows, ncols))
        return linalg.kron_image(field, nrows, ncols, terms)

    monkeypatch.setattr(stab, "kron_image", record)
    res = stable_hom(inst.system, conj, conj)
    assert shapes == [(144, 12)]
    assert (res.hom_dim, res.stable_dim) == (12, 0) and res.null_basis == res.hom_basis


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
    zero = free_module(inst.algebra, 0)
    for j in range(3):
        vj = truncated_module(3, j, Q)
        oracle = factoring_ideal_oracle(inst.system, free1, vj)
        assert oracle == hom_A(free1, vj)
        assert factoring_ideal_oracle(inst.system, zero, vj) == Subspace.zero(Q, 0)


@st.composite
def _oracle_case(draw):
    """(system, M, N) off the catalog: Lambda_q (q = 2, -1, 1/2), which is
    not symmetric, with its M_lam and its regular module; k[x]/(x^n), n =
    3..5, in a seeded random basis over GF(2), GF(5) or Q, with V_i and the
    regular module moved into it; or k[x]/(x^3) over Q under a left or
    right twist, whose C is not the catalog's."""
    kind = draw(st.sampled_from(["lambda", "basis", "twist"]))
    if kind == "lambda":
        system = quantum_exterior(draw(st.sampled_from([2, -1, Fraction(1, 2)])))
        pool = [quantum_exterior_module(system.algebra, lam) for lam in (1, 2, None)]
        pool.append(regular_module(system.algebra))
    elif kind == "basis":
        field, n = draw(st.sampled_from([GF2, GF5, Q])), draw(st.integers(3, 5))
        inst = truncated_polynomial(n, field)
        pm = random_basis(field, n, seed=draw(st.integers(0, 3)))
        system = in_basis(inst.system, pm)
        mods = [truncated_module(n, i, field) for i in range(n)] + [regular_module(inst.algebra)]
        pool = [module_in_basis(m, system.algebra, pm) for m in mods]
    else:
        d = (Q.from_int(draw(st.integers(1, 3))),
             *(Q.from_int(draw(st.integers(-2, 2))) for _ in range(2)))
        side = draw(st.sampled_from(["left", "right"]))
        system = twist(truncated_polynomial(3, Q).system, d, side=side)
        pool = [truncated_module(3, i, Q) for i in range(3)] + [regular_module(system.algebra)]
    return system, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=40, deadline=None)
@given(_oracle_case())
def test_factoring_oracle_matches_the_image_of_t_off_the_catalog(case):
    # The oracle reads no C, so a wrongly read C in T would show here,
    # where C is neither symmetric nor the catalog's.
    system, m, n_ = case
    assert factoring_ideal_oracle(system, m, n_) == stable_hom(system, m, n_).null_basis


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
    for cls, name in ((Matrix, "apply"), (Subspace, "reduce")):
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
    pm = Matrix.dense(field, vi.dim, vi.dim, tuple(map(field.from_int, entries)))
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


@st.composite
def _catalog_family(draw):
    """(system, modules) over GF(2), GF(3) or Q: k[x]/(x^n) with its
    truncated modules, or a group algebra with its trivial and regular
    modules."""
    field = draw(st.sampled_from([GF2, GF3, Q]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        mods = [truncated_module(n, i, field) for i in range(n)]
        return truncated_polynomial(n, field).system, mods
    group = draw(st.sampled_from([cyclic_group(3), klein_four_group(), symmetric_group_3()]))
    inst = group_algebra(group, field)
    return inst.system, [trivial_module(inst.algebra), regular_module(inst.algebra)]


def _module_or_sum(data, family):
    """A module of the family, or the direct sum of two."""
    mods = [data.draw(st.sampled_from(family)) for _ in range(data.draw(st.integers(1, 2)))]
    return mods[0] if len(mods) == 1 else direct_sum(mods)


@settings(max_examples=30, deadline=None)
@given(_catalog_family(), st.data())
def test_twists_leave_the_null_subspace_unchanged(case, data):
    # The maps factoring through a projective do not depend on the
    # Frobenius system, so T and its twisted form have one image.
    system, family = case
    m, n_ = _module_or_sum(data, family), _module_or_sum(data, family)
    alg = system.algebra
    d = tuple(alg.field.from_int(data.draw(st.integers(-2, 2))) for _ in range(alg.dim))
    assume(element_inverse(alg, d) is not None)
    twisted = twist(system, d, side=data.draw(st.sampled_from(["left", "right"])))
    base, after = stable_hom(system, m, n_), stable_hom(twisted, m, n_)
    assert after.null_basis == base.null_basis


@settings(max_examples=30, deadline=None)
@given(_catalog_family(), st.data())
def test_stable_hom_dims_are_additive_over_direct_sums(case, data):
    system, family = case
    m, x, n_ = (data.draw(st.sampled_from(family)) for _ in range(3))
    total = direct_sum([m, x])

    def dims(a, b):
        res = stable_hom(system, a, b)
        return res.hom_dim, res.null_dim, res.stable_dim

    def added(u, v):
        return tuple(s + t for s, t in zip(u, v))

    assert dims(total, n_) == added(dims(m, n_), dims(x, n_))
    assert dims(n_, total) == added(dims(n_, m), dims(n_, x))


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


_SKEW = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])


def test_frobenius_ideal_matches_the_dense_definition():
    """The columns tau(e_j) = sum_q b_q e_q, b_q = sum_p C[p,q] e_p e_j,
    span the image of sum_p L(e_p) R(c_p) (`frobenius_ideal_by_definition`)
    on every catalog system, on Lambda_q, where C is not symmetric, on two
    systems in a skewed basis, and on two in a random basis, whose cells
    have denominators.  On Lambda_-1 the ideal is 0, while C read the other
    way round, C^T, gives the ideal spanned by xy: so the sparse form must
    read C's (p, q) as the definition does."""
    systems = [truncated_polynomial(n, f).system for n in range(1, 9) for f in (GF2, GF3, Q)]
    systems += [group_algebra(g, f).system
                for g in (cyclic_group(2), cyclic_group(3), klein_four_group(), symmetric_group_3())
                for f in (GF2, GF3, Q)]
    lambdas = [quantum_exterior(q) for q in (2, 3, Fraction(1, 2), -1)]
    systems += lambdas
    systems += [in_basis(truncated_polynomial(4, Q).system, _SKEW), in_basis(lambdas[0], _SKEW)]
    fractional = [
        in_basis(truncated_polynomial(5, Q).system, random_basis(Q, 5, seed=4)),
        in_basis(group_algebra(symmetric_group_3(), Q).system, random_basis(Q, 6, seed=2)),
    ]
    assert all(any(x.denominator > 1 for row in system.algebra.cells for cell in row
                   for _, x in cell) for system in fractional)
    for system in systems + fractional:
        assert frobenius_ideal(system) == frobenius_ideal_by_definition(system), system.algebra
    exterior = lambdas[-1]
    transposed = FrobeniusSystem(exterior.algebra, exterior.trace,
                                 exterior.element_matrix.transpose())
    assert frobenius_ideal(exterior).dim == 0
    assert frobenius_ideal_by_definition(transposed).dim == 1


def test_frobenius_ideal_sums_over_p_before_it_multiplies(monkeypatch):
    """In a random basis of k[x]/(x^6) over GF(5) most cells and most of C
    are nonzero.  Each column tau(e_j) is still one sparse product whose
    terms b_q e_q pair at most dim A entries of b_q with one basis element,
    dim A^2 pairs in all; multiplying e_p (e_j e_q) for each nonzero C[p,q]
    would pair each of C's nonzeros with a whole cell."""
    system = in_basis(truncated_polynomial(6, GF5).system, random_basis(GF5, 6, seed=1))
    alg, n = system.algebra, system.algebra.dim
    assert sum(len(cell) for row in alg.cells for cell in row) > n ** 3 // 2
    assert len(system.element_matrix.nonzeros[1]) > n ** 2 // 2
    pairs = []

    def counted_products(cells, p, terms):
        terms = [(list(u), list(v)) for u, v in terms]
        pairs.append(sum(len(u) * len(v) for u, v in terms))
        return algebra._sum_of_products(cells, p, terms)

    monkeypatch.setattr(stab, "_sum_of_products", counted_products)
    assert frobenius_ideal(system) == frobenius_ideal_by_definition(system)
    assert len(pairs) == n and max(pairs) <= n * n


def _twisted(m, twist_by):
    """M^a: the module M with each e_i acting as a(e_i), column i of twist_by."""
    alg = m.algebra
    twisted = ModuleRep(alg, m.dim, tuple(m.action_of(twist_by.col(i)) for i in range(alg.dim)))
    validate_module(twisted)
    return twisted


def _serre_failures(system, mods, twist_by):
    """The pairs (M, N) with dim stHom(M, N) != dim stHom(N, Omega(M^a))."""
    failures = []
    for m in mods:
        omega = shift_minus(_twisted(m, twist_by), 1)
        failures += [(m.name, n_.name) for n_ in mods if stable_hom(system, m, n_).stable_dim
                     != stable_hom(system, n_, omega).stable_dim]
    return failures


def test_serre_duality_on_a_non_symmetric_algebra():
    """The Auslander-Reiten formula in the stable category: dim stHom(M, N)
    = dim stHom(N, Omega(M^{nu^-1})), for nu = G^-1 G^T the Nakayama
    automorphism of the trace, as the matrix acting on coefficient
    columns, and M^{nu^-1} the module M with each a acting as nu^-1(a).
    It holds on all 49 pairs of modules M_lam of Lambda_2, where nu is not
    the identity, so the untwisted form fails on some pair.  In the basis
    1, x, x + y, xy, nu is not diagonal, and reading it by rows fails."""
    system = quantum_exterior(2)
    skew = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    skewed = in_basis(system, skew)
    mods = [quantum_exterior_module(system.algebra, lam)
            for lam in (1, 2, 4, 8, Fraction(1, 2), Fraction(1, 4), None)]
    for m in mods:
        validate_module(m)
    moved = [module_in_basis(m, skewed.algebra, skew) for m in mods]
    assert stable_hom(system, mods[0], mods[0]).stable_dim > 0
    for sys_, ms in ((system, mods), (skewed, moved)):
        g = gram_matrix(sys_.algebra, sys_.trace)
        nu_inv = (g.inverse() @ g.transpose()).inverse()
        assert _serre_failures(sys_, ms, nu_inv) == []
        assert _serre_failures(sys_, ms, Matrix.identity(Q, 4)) != []
    assert nu_inv.transpose() != nu_inv
    assert _serre_failures(skewed, moved, nu_inv.transpose()) != []


@st.composite
def _serre_case(draw):
    """(system, M, N): modules M_lam of Lambda_q (q = 2, 3), which is not
    symmetric, or modules of a catalog algebra, which is; each module is a
    pool module, possibly summed with a second one, and possibly conjugated
    by a random invertible matrix."""
    kind = draw(st.sampled_from(["lambda", "trunc", "group"]))
    if kind == "lambda":
        system = quantum_exterior(draw(st.sampled_from([2, 3])))
        pool = [quantum_exterior_module(system.algebra, lam)
                for lam in (1, 2, 3, 4, Fraction(1, 2), None)]
    elif kind == "trunc":
        n, field = draw(st.integers(2, 4)), draw(st.sampled_from([GF2, GF3, Q]))
        system = truncated_polynomial(n, field).system
        pool = [truncated_module(n, i, field) for i in range(n)]
    else:
        g, field = draw(st.sampled_from([(klein_four_group(), GF2), (cyclic_group(3), GF3),
                                         (symmetric_group_3(), GF3), (symmetric_group_3(), Q)]))
        system = group_algebra(g, field).system
        pool = [trivial_module(system.algebra), regular_module(system.algebra)]
        pool += [sign_module(field)] if g.name == "s3" else []

    def module():
        m = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            m = direct_sum([m, draw(st.sampled_from(pool))])
        return _random_conjugate(draw, m) if draw(st.booleans()) else m

    return system, module(), module()


@settings(max_examples=40, deadline=None)
@given(_serre_case())
def test_serre_duality_property(case):
    """dim stHom(M, N) = dim stHom(N, Omega(M^{nu^-1})), and in adjoint form
    dim stHom(M, N) = dim stHom((Omega^-1 N)^nu, M), for nu = C G^T the
    Nakayama automorphism read off the system, as the matrix acting on
    coefficient columns: Omega(-^{nu^-1}) is the Serre functor of the
    stable category, and (Omega^-1 -)^nu its inverse.  On a catalog algebra
    nu is the identity."""
    system, m, n_ = case
    nu = system.element_matrix @ gram_matrix(system.algebra, system.trace).transpose()
    want = stable_hom(system, m, n_).stable_dim
    assert stable_hom(system, n_, shift_minus(_twisted(m, nu.inverse()))).stable_dim == want
    assert stable_hom(system, _twisted(shift_plus(system, n_), nu), m).stable_dim == want


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


def test_stable_center_matches_per_product_solve():
    # Oracle: solve for each product of representatives in the basis reps + ideal,
    # for the ideal by its dense definition.  In the basis 1, x, x^2, x^2 + x^3 of
    # k[x]/(x^4) the ideal, spanned by x^3, is not a row of the center's canonical
    # basis; Lambda_q and s3 are not commutative, and in a random basis the
    # center's rows are dense, over Q with fractions in the table.
    s3q = group_algebra(symmetric_group_3(), Q).system
    s3f3 = group_algebra(symmetric_group_3(), GF3).system
    for system in (
        truncated_polynomial(4, GF2).system,
        truncated_polynomial(6, GF3).system,
        truncated_polynomial(5, Q).system,
        group_algebra(klein_four_group(), GF2).system,
        s3f3,
        s3q,
        in_basis(truncated_polynomial(4, Q).system, _SKEW),
        in_basis(s3f3, random_basis(GF3, 6, seed=5)),
        in_basis(truncated_polynomial(5, Q).system, random_basis(Q, 5, seed=4)),
        quantum_exterior(2),
        quantum_exterior(3),
    ):
        alg = system.algebra
        ideal = frobenius_ideal_by_definition(system)
        reps = dense_vectors(alg.field, alg.dim, alg.center_basis().complement_of(ideal)[0])
        span = Matrix.from_rows(alg.field, reps + ideal.basis_vectors(), ncols=alg.dim)
        table = []
        for s, r in enumerate(reps):
            for t, r2 in enumerate(reps):
                x = span.transpose().solve(alg.mul(r, r2))
                table += [(s, t, c, x[c]) for c in range(len(reps)) if x[c]]
        res = stable_center(system)
        assert (res.reps, res.ideal, res.mult_table) == (reps, ideal, table)


def test_stable_center_reads_each_pair_of_representatives_once(monkeypatch):
    """The representatives are central, so reps[s] reps[t] = reps[t] reps[s]
    and the table reads k (k + 1) / 2 products, one per pair s <= t.  With
    the ideal's dim A columns and the dim Z dim I absorption products, that
    is every sparse product `stable_center` makes."""
    reads, products = [], []
    complement_of = Subspace.complement_of

    def counted_complement(self, small):
        reps, coords = complement_of(self, small)
        return reps, lambda v: reads.append(1) or coords(v)

    def counted_products(cells, p, terms):
        products.append(1)
        return algebra._sum_of_products(cells, p, terms)

    monkeypatch.setattr(Subspace, "complement_of", counted_complement)
    monkeypatch.setattr(stab, "_sum_of_products", counted_products)
    for system in (
        truncated_polynomial(6, GF3).system,
        truncated_polynomial(5, Q).system,
        group_algebra(symmetric_group_3(), GF3).system,
        quantum_exterior(-1),
    ):
        reads.clear()
        products.clear()
        res = stable_center(system)
        alg, k = system.algebra, res.stable_center_dim
        assert k >= 2 and len(reads) == k * (k + 1) // 2
        assert len(products) == alg.dim + res.center_dim * res.ideal_dim + k * (k + 1) // 2


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


def test_stable_hom_checks_the_algebra_before_it_solves():
    """A pair of modules over another algebra is refused before `hom_A`
    solves for their maps."""
    a2 = truncated_polynomial(2, GF2)
    v = truncated_module(3, 1, GF2)
    with mock.patch.object(stab, "hom_A", side_effect=AssertionError("solved")), \
            pytest.raises(AlgebraMismatch):
        stable_hom(a2.system, v, v)


def test_null_maps_outside_hom_are_rejected():
    # Non-dual bases a = (1, x), b = (1, 1) give T(h) = (1 + x) h, which is onto
    # Hom_k(V1, V1) and so leaves Hom_A; their element is C = [[1, 0], [1, 0]].
    inst = truncated_polynomial(2, GF2)
    bad = FrobeniusSystem(inst.algebra, inst.system.trace, Matrix.from_rows(GF2, [[1, 0], [1, 0]]))
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
