"""Structure-constant algebra tests."""

from __future__ import annotations

import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobstab.errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotAssociative,
    ParseError,
    UnitMismatch,
)
from frobstab.exactfield import Field
from frobstab.algebra import (
    StructureAlgebra,
    algebra_from_json,
    algebra_to_json,
    enveloping,
    opposite,
    tensor,
)
from frobstab.catalog import (
    cyclic_group,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    truncated_polynomial,
)
from frobstab import algebra as algebra_module
from frobstab.linalg import Matrix, Subspace, kron
from frobstab.modrep import regular_module, validate_module
from helpers import (
    center_by_full_basis, full_subspace, generators_by_closure, quantum_exterior, zeros,
)

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)


def trunc2(field):
    one = field.one
    return StructureAlgebra.from_entries(
        field, 2,
        [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one)],
        unit=(one, field.zero), name="x2-by-hand",
    )


def rand_elem(alg, rng):
    if alg.field.kind == "rational":
        return tuple(alg.field.from_int(rng.randint(-3, 3)) for _ in range(alg.dim))
    return tuple(rng.randrange(alg.field.p) for _ in range(alg.dim))


def test_hand_built_algebra_validates():
    a = trunc2(Q)
    a.validate()
    rep = a.validation_report()
    assert (rep.associative_failures, rep.unit_failures) == ([], [])


def unital_entries(field, dim, extra):
    one = field.one
    out = []
    for j in range(dim):
        out.append((0, j, j, one))
        if j:
            out.append((j, 0, j, one))
    return out + list(extra)


def test_perturbed_constant_breaks_associativity():
    one = Q.one
    # x*x = y, x*y = 1, y*anything = 0: then (x*x)*y = y*y = 0 while
    # x*(x*y) = x*1 = x
    bad = StructureAlgebra.from_entries(
        Q, 3,
        unital_entries(Q, 3, [(1, 1, 2, one), (1, 2, 0, one)]),
        unit=(one, Q.zero, Q.zero),
    )
    rep = bad.validation_report()
    assert (1, 1, 2) in rep.associative_failures
    with pytest.raises(NotAssociative) as exc:
        bad.validate()
    assert exc.value.witness == rep.associative_failures


def test_broken_unit_reported():
    one = Q.one
    a = StructureAlgebra.from_entries(
        Q, 2, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one)],
        unit=(Q.zero, one),
    )
    rep = a.validation_report()
    assert rep.unit_failures
    with pytest.raises(UnitMismatch):
        a.validate()


def _validation_report_loop(alg):
    """Associativity on all dim^3 basis triples by dictionary sums, and the
    two-sided unit: the reference for `validation_report`."""
    add, mul, zero = alg.field.add, alg.field.mul, alg.field.zero
    n = alg.dim
    assoc = []
    for i in range(n):
        ci = alg.cells[i]
        for j in range(n):
            for k in range(n):
                left, right = {}, {}
                for l, v in ci[j]:
                    for m, w in alg.cells[l][k]:
                        left[m] = add(left.get(m, zero), mul(v, w))
                for l, v in alg.cells[j][k]:
                    for m, w in ci[l]:
                        right[m] = add(right.get(m, zero), mul(v, w))
                if any(left.get(m, zero) != right.get(m, zero) for m in set(left) | set(right)):
                    assoc.append((i, j, k))
    unit_bad = []
    for j in range(n):
        e = alg.basis_vector(j)
        if alg.mul(alg.unit, e) != e or alg.mul(e, alg.unit) != e:
            unit_bad.append(j)
    return assoc, unit_bad


def _nonzero(draw, field):
    if field.kind == "rational":
        num = draw(st.integers(-3, 3).filter(bool))
        return field.parse(f"{num}/{draw(st.integers(1, 3))}")
    return draw(st.integers(1, field.p - 1))


@st.composite
def _perturbed_algebra(draw):
    """A catalog algebra with one structure constant shifted, and sometimes
    one unit coordinate."""
    alg = draw(st.sampled_from(list(_reference_algebras())))
    f, n = alg.field, alg.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    cells = [list(row) for row in alg.cells]
    cells[i][j] = cells[i][j] + ((k, _nonzero(draw, f)),)
    unit = list(alg.unit)
    if draw(st.booleans()):
        t = draw(st.integers(0, n - 1))
        unit[t] = f.add(unit[t], _nonzero(draw, f))
    return StructureAlgebra(f, n, cells, unit)


@settings(max_examples=200, deadline=None)
@given(_perturbed_algebra())
def test_validation_report_matches_the_triple_loop(alg):
    rep = alg.validation_report()
    assert (rep.associative_failures, rep.unit_failures) == _validation_report_loop(alg)


def test_validation_reads_the_generators_only(monkeypatch):
    """k[x]/(x^24) has one generator, x, so checking it and its regular
    module takes 24 products each; the full basis would take 24^2."""
    t24 = truncated_polynomial(24, GF2).algebra
    alg = StructureAlgebra(GF2, t24.dim, t24.cells, t24.unit)
    products = []
    matmul = Matrix.__matmul__

    def counting_matmul(a, b):
        products.append(a.shape)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    alg.validate()
    assert len(products) == 24
    products.clear()
    validate_module(regular_module(alg))
    assert len(products) == 24


def test_basic_products():
    alg = truncated_polynomial(3, Q).algebra
    x = alg.basis_vector(1)
    assert alg.mul(x, x) == alg.basis_vector(2)
    assert alg.mul(x, alg.basis_vector(2)) == (Q.zero,) * alg.dim
    e_plus_g = None
    kc2 = group_algebra(cyclic_group(2), GF2).algebra
    e_plus_g = (GF2.one, GF2.one)
    assert kc2.mul(e_plus_g, e_plus_g) == (GF2.zero,) * kc2.dim


# The loops that built multiplication matrices and structure constants
# before `left` / `right`, kept as reference implementations.


def _left_mult_loop(alg, x):
    add, mul = alg.field.add, alg.field.mul
    n = alg.dim
    out = [alg.field.zero] * (n * n)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = alg.cells[i]
        for j in range(n):
            for k, v in row[j]:
                idx = k * n + j
                out[idx] = add(out[idx], mul(xi, v))
    return Matrix.dense(alg.field, n, n, tuple(out))


def _right_mult_loop(alg, x):
    add, mul = alg.field.add, alg.field.mul
    n = alg.dim
    out = [alg.field.zero] * (n * n)
    for j in range(n):
        row = alg.cells[j]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for k, v in row[i]:
                idx = k * n + j
                out[idx] = add(out[idx], mul(xi, v))
    return Matrix.dense(alg.field, n, n, tuple(out))


def _opposite_loop(a):
    raw = [[a.cells[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return StructureAlgebra(
        a.field, a.dim, raw, a.unit, name=f"{a.name}^op", basis_names=a.basis_names
    )


def _tensor_loop(a, b):
    field = a.field
    nb = b.dim
    dim = a.dim * nb
    raw = [[None] * dim for _ in range(dim)]
    for i1 in range(a.dim):
        for j1 in range(nb):
            r = raw[i1 * nb + j1]
            for i2 in range(a.dim):
                ca = a.cells[i1][i2]
                for j2 in range(nb):
                    cb = b.cells[j1][j2]
                    r[i2 * nb + j2] = tuple(
                        (k1 * nb + k2, field.mul(v1, v2))
                        for k1, v1 in ca
                        for k2, v2 in cb
                    )
    unit = tuple(
        field.mul(a.unit[p], b.unit[q]) for p in range(a.dim) for q in range(nb)
    )
    return StructureAlgebra(field, dim, raw, unit)


def _reference_algebras():
    for n in range(1, 7):
        for f in (Q, GF3):
            yield truncated_polynomial(n, f).algebra
    for g in (cyclic_group(2), cyclic_group(3), klein_four_group(), symmetric_group_3()):
        for f in (GF2, Q):
            yield group_algebra(g, f).algebra


def test_mult_matrices_match_the_loops():
    rng = random.Random(5)
    for alg in _reference_algebras():
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            assert alg.left[i] == _left_mult_loop(alg, e)
            assert alg.right[i] == _right_mult_loop(alg, e)
        for x in [alg.unit] + [rand_elem(alg, rng) for _ in range(4)]:
            assert alg.left_mult_matrix(x) == _left_mult_loop(alg, x)
            assert alg.right_mult_matrix(x) == _right_mult_loop(alg, x)
        zero = (alg.field.zero,) * alg.dim
        assert alg.left_mult_matrix(zero) == zeros(alg.field, alg.dim, alg.dim)


def test_opposite_and_tensor_match_the_loops():
    algs = list(_reference_algebras())
    for a in algs:
        op, ref = opposite(a), _opposite_loop(a)
        assert (op.cells, op.unit, op.name, op.basis_names) == (
            ref.cells, ref.unit, ref.name, ref.basis_names)
        env, env_ref = enveloping(a), _tensor_loop(a, ref)
        assert (env.cells, env.unit) == (env_ref.cells, env_ref.unit)
    small = [a for a in algs if a.dim <= 4]
    for a in small:
        for b in small:
            if a.field == b.field:
                t, ref = tensor(a, b), _tensor_loop(a, b)
                assert (t.dim, t.cells, t.unit) == (ref.dim, ref.cells, ref.unit)


def test_mult_matrices_against_products():
    rng = random.Random(17)
    s3 = group_algebra(symmetric_group_3(), GF2).algebra
    for alg in (
        truncated_polynomial(4, GF3).algebra,
        s3,
        truncated_polynomial(4, Q).algebra,
        group_algebra(symmetric_group_3(), Q).algebra,
        # an enveloping algebra of a fresh (uncached) copy of s3, 36-dimensional
        enveloping(StructureAlgebra(GF2, s3.dim, s3.cells, s3.unit)),
    ):
        for _ in range(10):
            a, b = rand_elem(alg, rng), rand_elem(alg, rng)
            la = alg.left_mult_matrix(a)
            rb = alg.right_mult_matrix(b)
            assert la.apply(b) == alg.mul(a, b)
            assert rb.apply(a) == alg.mul(a, b)
            # composition rules and commutation of left with right
            ab = alg.mul(a, b)
            assert alg.left_mult_matrix(ab) == la @ alg.left_mult_matrix(b)
            assert alg.right_mult_matrix(ab) == alg.right_mult_matrix(b) @ alg.right_mult_matrix(a)
            assert la @ rb == rb @ la
    alg = truncated_polynomial(3, Q).algebra
    assert alg.left_mult_matrix(alg.unit) == Matrix.identity(Q, 3)


def test_mult_matrices_are_cached_per_instance():
    alg = group_algebra(symmetric_group_3(), GF3).algebra
    assert alg.left is alg.left and alg.right is alg.right
    assert len(alg.left) == len(alg.right) == alg.dim
    assert regular_module(alg).action is alg.left


@pytest.mark.parametrize("length", [0, 2, 4])
def test_wrong_element_length_is_rejected(length):
    alg = truncated_polynomial(3, GF3).algebra
    x = (GF3.one,) * length
    for mult_matrix in (alg.left_mult_matrix, alg.right_mult_matrix, regular_module(alg).action_of):
        with pytest.raises(DimensionMismatch):
            mult_matrix(x)


def test_opposite():
    s3 = group_algebra(symmetric_group_3(), Q).algebra
    op = opposite(s3)
    assert op.cells != s3.cells
    assert opposite(op) == s3
    comm = truncated_polynomial(3, Q).algebra
    assert opposite(comm) == comm
    op.validate()


def test_tensor_dims_and_validity():
    a = truncated_polynomial(2, GF2).algebra
    b = group_algebra(cyclic_group(2), GF2).algebra
    t = tensor(a, b)
    assert t.dim == 4
    t.validate()
    with pytest.raises(FieldMismatch):
        tensor(a, group_algebra(cyclic_group(2), GF3).algebra)


def test_tensor_left_mult_is_kron():
    rng = random.Random(31)
    a = truncated_polynomial(2, GF3).algebra
    b = group_algebra(cyclic_group(3), GF3).algebra
    t = tensor(a, b)
    for _ in range(8):
        x, y = rand_elem(a, rng), rand_elem(b, rng)
        xy = tuple(
            GF3.mul(x[p], y[q]) for p in range(a.dim) for q in range(b.dim)
        )
        assert t.left_mult_matrix(xy) == kron(a.left_mult_matrix(x), b.left_mult_matrix(y))


def test_enveloping_dim_and_validity():
    a = truncated_polynomial(2, GF2).algebra
    env = enveloping(a)
    assert env.dim == 4
    env.validate()
    env_s3 = enveloping(group_algebra(symmetric_group_3(), GF2).algebra)
    assert env_s3.dim == 36


def test_enveloping_built_once_per_instance(monkeypatch):
    calls = []

    def counting_tensor(a, b, name=None):
        calls.append((a, b))
        return tensor(a, b, name)

    monkeypatch.setattr(algebra_module, "tensor", counting_tensor)
    named = trunc2(GF3)
    t3 = truncated_polynomial(3, GF3).algebra
    basis_named = StructureAlgebra(GF3, 3, t3.cells, t3.unit, basis_names=t3.basis_names)
    nameless = StructureAlgebra(GF3, 3, t3.cells, t3.unit)
    algs = (named, basis_named, nameless)
    envs = [enveloping(x) for x in algs]
    assert [enveloping(x) for x in algs + algs] == envs + envs
    assert all(enveloping(x) is e for x, e in zip(algs, envs))
    assert len(calls) == 3
    for x, e in zip(algs, envs):
        ref = tensor(x, opposite(x))
        assert e.name == f"{x.name}^env"
        assert (e.basis_names, e.cells, e.unit) == (ref.basis_names, ref.cells, ref.unit)
    assert envs[0].basis_names is None and envs[2].basis_names is None
    assert envs[1].basis_names[:2] == ("1(x)1", "1(x)x")
    assert envs[2] == envs[1] and envs[2] is not envs[1]
    assert nameless.name == "A" and envs[2].name == "A^env"


@pytest.mark.parametrize("attr, value", [
    ("name", "other"), ("basis_names", ("u", "v")), ("cells", ()),
])
def test_algebras_are_immutable(attr, value):
    catalog = truncated_polynomial(2, GF2).algebra
    for alg in (trunc2(Q), catalog, enveloping(catalog)):
        before = getattr(alg, attr)
        with pytest.raises(AttributeError):
            setattr(alg, attr, value)
        assert getattr(alg, attr) == before
    assert truncated_polynomial(2, GF2).algebra.name == "trunc_poly_2"


def test_algebra_pickles_back_equal_and_immutable():
    for alg in (trunc2(Q), group_algebra(symmetric_group_3(), GF3).algebra):
        alg.generators, alg.left, alg.right
        back = pickle.loads(pickle.dumps(alg))
        assert back == alg and hash(back) == hash(alg)
        assert (back.left, back.right) == (alg.left, alg.right)
        assert (back.name, back.basis_names, back.group) == (alg.name, alg.basis_names, alg.group)
        assert back.generators == alg.generators
        with pytest.raises(AttributeError):
            back.name = "other"


def test_generators_of_catalog_algebras():
    cases = [
        (truncated_polynomial(2, GF2).algebra, (1,)),
        (truncated_polynomial(24, GF2).algebra, (1,)),
        (group_algebra(cyclic_group(5), GF3).algebra, (1,)),
        (group_algebra(klein_four_group(), GF2).algebra, (1, 2)),
        (group_algebra(symmetric_group_3(), GF3).algebra, (1, 3)),
        (enveloping(group_algebra(symmetric_group_3(), Q).algebra), (1, 3, 6, 18)),
        (StructureAlgebra(GF3, 0, [], ()), ()),
        (truncated_polynomial(1, Q).algebra, ()),
    ]
    for alg, gens in cases:
        assert alg.generators == gens


def _word_span(alg):
    """Span of all words in the generators, grown from span{unit} by whole
    rounds of left multiplication until it stops growing."""
    span = Subspace.from_vectors(alg.field, alg.dim, [alg.unit])
    while True:
        words = [
            alg.mul(alg.basis_vector(g), v)
            for g in alg.generators for v in span.basis_vectors()
        ]
        grown = span + Subspace.from_vectors(alg.field, alg.dim, words)
        if grown == span:
            return span
        span = grown


@settings(max_examples=200, deadline=None)
@given(_perturbed_algebra())
def test_generators_match_the_dense_closure(alg):
    """Associative or not, with a unit or not, the sparse closure keeps the
    same indices as the dense one."""
    assert alg.generators == generators_by_closure(alg)


def test_generators_generate_the_algebra():
    algs = [truncated_polynomial(n, f).algebra for n in range(1, 7) for f in (GF2, GF3, Q)]
    algs += [group_algebra(g, f).algebra
             for g in (klein_four_group(), symmetric_group_3()) for f in (GF2, GF3, Q)]
    algs += [enveloping(a) for a in algs if a.dim <= 6]
    for alg in algs:
        assert _word_span(alg) == full_subspace(alg.field, alg.dim), alg


def test_product_table_reaches_every_index_of_the_catalog_algebras():
    """x^k = x x^(k-1), and a group element is a generator times an earlier
    element: every index other than the unit's e_0 and the generators' is
    entered, each entry's cell is the one product it records, and its
    second factor is a generator or an earlier entry."""
    algs = [truncated_polynomial(n, f).algebra for n in (1, 2, 5, 24) for f in (GF2, GF3, Q)]
    algs += [group_algebra(g, f).algebra
             for g in (cyclic_group(5), klein_four_group(), symmetric_group_3())
             for f in (GF2, GF3, Q)]
    algs.append(enveloping(group_algebra(symmetric_group_3(), Q).algebra))
    for alg in algs:
        u, table = alg._products
        assert u == 0 and sorted([u, *alg.generators, *table]) == list(range(alg.dim))
        seen = set(alg.generators)
        for q, (g, j, c) in table.items():
            assert g in alg.generators and j in seen and alg.cells[g][j] == ((q, c),)
            seen.add(q)


def test_center_of_commutative_is_everything():
    for n in (1, 2, 5):
        alg = truncated_polynomial(n, Q).algebra
        assert alg.center_basis().dim == n


def test_center_of_s3_is_class_sums():
    # independent oracle: the center of a group algebra is spanned by the
    # conjugacy class sums e, r + r2, s + rs + r2s
    for f in (Q, GF2, GF3):
        alg = group_algebra(symmetric_group_3(), f).algebra
        z = alg.center_basis()
        one, zero = f.one, f.zero
        sums = [
            (one, zero, zero, zero, zero, zero),
            (zero, one, one, zero, zero, zero),
            (zero, zero, zero, one, one, one),
        ]
        expected = Subspace.from_vectors(f, 6, sums)
        assert z == expected


def test_center_matches_the_full_basis_commutators():
    # The reference algebras hold klein4 and s3 over GF(2) and Q.
    s3 = group_algebra(symmetric_group_3(), GF3).algebra
    algs = [*_reference_algebras(), s3, enveloping(s3)]
    algs += [quantum_exterior(q).algebra for q in (2, 3, Fraction(1, 2))]
    for alg in algs:
        assert alg.center_basis() == center_by_full_basis(alg), alg
    # Lambda_q is neither commutative nor symmetric: its center is span{1, xy}.
    assert center_by_full_basis(algs[-1]).pivots == (0, 3)


def test_center_is_closed_under_products():
    rng = random.Random(3)
    alg = group_algebra(klein_four_group(), GF2).algebra
    z = alg.center_basis()
    for v in z.basis_vectors():
        for w in z.basis_vectors():
            assert z.contains(alg.mul(v, w))


def test_json_round_trip():
    inst = truncated_polynomial(3, GF2)
    obj = algebra_to_json(inst.algebra, trace=inst.system.trace)
    back, trace = algebra_from_json(obj)
    assert back == inst.algebra
    assert trace == inst.system.trace
    assert back.basis_names == inst.algebra.basis_names
    obj_q = algebra_to_json(group_algebra(symmetric_group_3(), Q).algebra)
    back_q, trace_q = algebra_from_json(obj_q)
    assert back_q == group_algebra(symmetric_group_3(), Q).algebra
    assert trace_q is None


def test_json_strictness():
    inst = truncated_polynomial(2, Q)
    good = algebra_to_json(inst.algebra, trace=inst.system.trace)

    bad = dict(good); bad["extra"] = 1
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    bad = dict(good); del bad["unit"]
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    bad = dict(good); bad["format"] = "frobstab-algebra/2"
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    bad = dict(good); bad["mult"] = good["mult"] + [good["mult"][0]]
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    bad = dict(good); bad["mult"] = [[0, 0, 5, "1"]]
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    bad = dict(good); bad["mult"] = [[0, 0, 0, "1/0"]]
    with pytest.raises(ParseError):
        algebra_from_json(bad)

    # zero-valued entries are tolerated and dropped
    ok = dict(good); ok["mult"] = good["mult"] + [[1, 1, 0, "0"]]
    back, _ = algebra_from_json(ok)
    assert back == inst.algebra


def test_json_errors_come_in_entry_order():
    # The first faulty mult entry raises the error it raised when each entry
    # was checked and then parsed in turn; unit and trace scalars too.
    inst = truncated_polynomial(2, Q)
    good = algebra_to_json(inst.algebra, trace=inst.system.trace)
    cases = [
        ([[0, 0, 0, "x"], [0, 0, 9, "1"]], "bad scalar 'x'"),
        ([[0, 0, 9, "1"], [0, 0, 0, "x"]], "mult index 9 out of range [0, 2)"),
        ([[0, 0, 9, "x"]], "mult index 9 out of range [0, 2)"),
        ([[0, 0, 0, "1"], [0, 0, 0, "x"]], "duplicate mult entry (0,0,0)"),
        ([[0, 0, 0, "1"], [0, 1, 1, [1]], "x"], "scalar must be a string, got list"),
        ([[0, 0, 0, "1"], [0, 1, 1, "1"], "x"], "mult entry 'x' is not [i, j, k, scalar]"),
    ]
    for mult, want in cases:
        with pytest.raises(ParseError) as exc:
            algebra_from_json({**good, "mult": mult})
        assert str(exc.value) == want
    for key in ("unit", "trace", "mult"):
        bad = json.loads(json.dumps(good))
        if key == "mult":
            bad[key][1][3] = "7" * 5000
        else:
            bad[key][1] = "7" * 5000
        with pytest.raises(ParseError) as exc:
            algebra_from_json(bad)
        assert exc.value.witness == 5000


def test_constructor_guards():
    with pytest.raises(DimensionMismatch):
        StructureAlgebra(Q, 2, [[(), ()], [(), ()]], unit=(Q.one,))
    with pytest.raises(IndexOutOfRange):
        StructureAlgebra.from_entries(Q, 2, [(0, 0, 7, Q.one)], unit=(Q.one, Q.zero))
    with pytest.raises(IndexOutOfRange):
        StructureAlgebra.from_entries(Q, 2, [(0, 3, 0, Q.one)], unit=(Q.one, Q.zero))
