"""Matrix and subspace tests.

The Kronecker/vec identity is pinned against an independent oracle (direct
triple-product expansion) before anything downstream relies on it.
"""

from __future__ import annotations

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobstab import linalg
from frobstab.catalog import truncated_module, truncated_polynomial
from frobstab.errors import DimensionMismatch, FieldMismatch, NotASubspace
from frobstab.exactfield import Field
from frobstab.linalg import (
    Matrix, Subspace, _kron_rows, _rref, kron, kron_image, kron_kernel, kron_sum,
    linear_combination,
)
from frobstab.modrep import ModuleRep, quotient_module, submodule
from frobstab.stab import shift_minus, shift_plus
from helpers import (
    apply_by_definition, assert_stored_rows, at, complement_oracle, dense_vectors,
    entrywise_by_definition, exact_kernel,
    full_subspace, integer_rows, intersect, kron_sum_by_definition, matmul_by_definition,
    neg_by_definition, reduce_by_definition, rref, rref_by_oracle, rref_field,
    transpose_by_definition, unvec, vec, zeros,
)

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows])


def rand_matrix(field, rng, nrows, ncols, lo=-4, hi=4):
    if field.kind == "rational":
        entries = [
            Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(nrows * ncols)
        ]
    else:
        entries = [rng.randrange(field.p) for _ in range(nrows * ncols)]
    return Matrix.dense(field, nrows, ncols, tuple(entries))


def _field_route():
    """Every reduction, kernels included, by the dense field-generic oracle."""
    return mock.patch.multiple(linalg, _rref=rref_by_oracle, _row_kernel=exact_kernel)


# rref ---------------------------------------------------------------


def test_rref_rank_one_example():
    m = mat(Q, [[2, 4], [1, 2]])
    r, piv, rank = rref(m)
    assert rank == 1
    assert piv == (0,)
    assert r == mat(Q, [[1, 2], [0, 0]])


def test_rref_identity_fixed_point():
    m = Matrix.identity(GF3, 4)
    r, piv, rank = rref(m)
    assert r == m and rank == 4 and piv == (0, 1, 2, 3)


def test_rref_mod2():
    m = mat(GF2, [[1, 1], [1, 1]])
    r, piv, rank = rref(m)
    assert rank == 1
    assert r == mat(GF2, [[1, 1], [0, 0]])


def test_rref_idempotent_random():
    rng = random.Random(11)
    for field in (Q, GF2, GF5):
        for _ in range(15):
            m = rand_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))
            r1, piv1, k1 = rref(m)
            r2, piv2, k2 = rref(r1)
            assert r1 == r2 and piv1 == piv2 and k1 == k2


# the one row reduction against the field-generic loop -------------------

_BIG = 2**64
_q_scalars = st.one_of(
    st.sampled_from([Q.zero, Fraction(0), 0]),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-4 * _BIG, 4 * _BIG), st.sampled_from([1, 3, _BIG + 13])),
)


@st.composite
def _rational_rows(draw):
    """(ncols, rows): tall, wide or square, with dependent, zero and huge entries."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(_q_scalars) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        s, t = draw(_q_scalars), draw(_q_scalars)
        rows[2] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[c] = Fraction(0)
    return ncols, rows


@st.composite
def _combination_rows(draw):
    """(ncols, rows): 12 to 16 dense rows over Q, each a combination with
    large coefficients of 2 to 4 dense base rows, so the rank is at most 4
    and most rows cancel only after several eliminations."""
    ncols = draw(st.integers(4, 9))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=2, max_size=4))
    coeff = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20))
    rows = []
    for _ in range(draw(st.integers(12, 16))):
        cs = [draw(coeff) for _ in base]
        rows.append([sum(c * r[j] for c, r in zip(cs, base)) for j in range(ncols)])
    return ncols, rows


@st.composite
def _tall_rows(draw, fields):
    """(field, ncols, rows) over one of `fields`: 8 to 16 rows, each a
    combination of 1 to 3 base rows, a zero row or a repeat of an earlier
    row, shuffled, so rows of every rank arrive in every order and most
    cancel, some only after the rows before them have been cleared back."""
    field = draw(st.sampled_from(fields))
    ncols = draw(st.integers(1, 8))
    if field is Q:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        entry = st.integers(0, field.p - 1)
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(8, 16))):
        kind = draw(st.sampled_from(["combination"] * 3 + ["zero", "repeat"]))
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            cs = [draw(entry) for _ in base]
            rows.append([field.add(field.zero, sum(field.mul(c, r[j]) for c, r in zip(cs, base)))
                         for j in range(ncols)])
    return field, ncols, draw(st.permutations(rows))


def _scalars(*results):
    """Every scalar of the given matrices, subspaces and vectors."""
    out = []
    for r in results:
        if isinstance(r, Subspace):
            r = r.basis
        out.extend(r.entries if isinstance(r, Matrix) else r or ())
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rational_rows(), _combination_rows(),
                 _tall_rows([Q]).map(lambda case: case[1:])))
def test_rational_route_matches_field_route(case):
    ncols, rows = case
    got = _rref([{j: x for j, x in enumerate(r) if x} for r in rows], 0)
    dense = [list(r) for r in rows]
    piv, rank = rref_field(dense, ncols, Q)
    assert list(got) == piv and len(got) == rank
    assert_stored_rows(got)
    assert [[Fraction(row.get(j, 0), row[c]) for j in range(ncols)]
            for c, row in got.items()] == dense[:rank]


@st.composite
def _prime_rows(draw):
    """(field, ncols, rows) over GF(2), GF(3), GF(5) or GF(7): empty, tall
    or wide, sparse or dense, with zero, repeated and dependent rows."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Field.prime(7)]))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    entry = st.integers(1, field.p - 1)

    def row():
        return [draw(entry) if draw(st.floats(0, 1)) < density else 0 for _ in range(ncols)]

    rows = [row() for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    if nrows >= 3 and draw(st.booleans()):
        s, t = draw(entry), draw(entry)
        rows[1] = [field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(rows[0], rows[2])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    return field, ncols, rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(_prime_rows(), _tall_rows([GF2, GF3, GF5, Field.prime(7)])))
def test_sparse_route_matches_field_route(case):
    field, ncols, rows = case
    dense = [list(r) for r in rows]
    piv, rank = rref_field(dense, ncols, field)
    got = _rref([{j: x for j, x in enumerate(r) if x} for r in rows], field.p)
    assert list(got) == piv and len(got) == rank
    assert [[row.get(j, 0) for j in range(ncols)] for row in got.values()] == dense[:rank]
    assert not any(x for r in dense[rank:] for x in r)


@settings(max_examples=100, deadline=None)
@given(_prime_rows(), st.data())
def test_public_api_over_gf_p_matches_field_route(case, data):
    field, ncols, rows = case
    m = Matrix.from_rows(field, rows, ncols=ncols)
    k = min(m.nrows, ncols)
    square = Matrix.from_rows(field, [r[:k] for r in rows[:k]], ncols=k)
    b = tuple(data.draw(st.integers(0, field.p - 1)) for _ in range(m.nrows))

    def results():
        return (rref(m), m.rank(), m.kernel_basis(), m.image_basis(), m.solve(b),
                square.inverse(), Subspace.from_vectors(field, ncols, rows))

    fast = results()
    with _field_route():
        slow = results()
    assert fast == slow
    _assert_solutions(m, b, fast[4], square, fast[5])


def _assert_solutions(m, b, x, square, inv):
    """x solves m x = b and inv inverts square, where they are not None: a
    check on how `solve` and `inverse` set up their rows, which the field
    route shares."""
    if x is not None:
        assert m.apply(x) == tuple(m.field.add(m.field.zero, y) for y in b)
    if inv is not None:
        assert square @ inv == Matrix.identity(square.field, square.nrows)


@settings(max_examples=100, deadline=None)
@given(_rational_rows(), st.data())
def test_public_api_matches_field_route(case, data):
    ncols, rows = case
    m = Matrix.from_rows(Q, rows, ncols=ncols)
    k = min(m.nrows, ncols)
    square = Matrix.from_rows(Q, [r[:k] for r in rows[:k]], ncols=k)
    b = tuple(data.draw(_q_scalars) for _ in range(m.nrows))
    # a zero row with a nonzero right-hand side is never consistent
    padded = Matrix.from_rows(Q, rows + [[Q.zero] * ncols], ncols=ncols)

    def results():
        return (rref(m), m.rank(), m.kernel_basis(), m.image_basis(), m.solve(b),
                padded.solve(b + (Q.one,)), square.inverse(),
                Subspace.from_vectors(Q, ncols, rows))

    fast = results()
    with _field_route():
        slow = results()
    assert fast == slow
    assert fast[5] is None
    _assert_solutions(m, b, fast[4], square, fast[6])
    echelon, _, kernel, image, x, _, inv, span = fast
    assert all(type(s) is Fraction for s in _scalars(echelon[0], kernel, image, x, inv, span))


def test_int_entries_over_q_give_exact_fractions():
    assert Matrix.from_rows(Q, [[3, 1], [1, 1]]).inverse() == Matrix.from_rows(
        Q, [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    )
    for rows in ([[3, 1], [1, 1]], [[2, 1], [1, 3]], [[1, 2, 3], [2, 4, 6]], [[0, 2], [0, 1], [5, 0]]):
        ints = Matrix.from_rows(Q, rows)
        fracs = Matrix.from_rows(Q, [[Fraction(x) for x in r] for r in rows])
        b = tuple(range(1, ints.nrows + 1))

        def results(m, rhs):
            inv = m.inverse() if m.nrows == m.ncols else None
            return rref(m), inv, m.solve(rhs), m.kernel_basis()

        got = results(ints, b)
        assert got == results(fracs, tuple(map(Fraction, b)))
        echelon, inv, x, kernel = got
        assert all(type(s) is Fraction for s in _scalars(echelon[0], inv, x, kernel))


# kernels against the dense oracle ------------------------------------

_tall = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40))


@st.composite
def _kernel_rows(draw):
    """(ncols, rows) over Q: sparse or dense, integer, rational or tall
    entries, with dependent and zero rows."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    scalar = draw(st.sampled_from([
        st.integers(-5, 5).map(Fraction),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
        st.one_of(st.integers(-3, 3).map(Fraction), _tall),
    ]))

    def row():
        return [draw(scalar) if draw(st.floats(0, 1)) < density else Q.zero for _ in range(ncols)]

    rows = [row() for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        s, t = draw(scalar), draw(scalar)
        rows[2] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    return ncols, rows


def _oracle_kernel(field, rows, ncols):
    """`exact_kernel` with every reduction by the dense oracle `rref_field`."""
    with mock.patch.object(linalg, "_rref", rref_by_oracle):
        return exact_kernel(field, rows, ncols)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_kernel_rows().map(lambda case: (Q, *case)), _prime_rows()))
def test_row_kernel_matches_the_dense_oracle(case):
    """`_row_kernel` of integer rows over Q, and of residue rows over
    GF(p), is the kernel that the dense oracle gives, stored alike."""
    field, ncols, rows = case
    rows = integer_rows(rows) if field is Q else [{j: x for j, x in enumerate(r) if x} for r in rows]
    want = _oracle_kernel(field, rows, ncols)
    got = linalg._row_kernel(field, [dict(r) for r in rows], ncols)
    assert got.rows == want.rows and got.pivots == want.pivots
    assert got.basis.entries == want.basis.entries
    assert [str(x) for x in got.basis.entries] == [str(x) for x in want.basis.entries]
    if field is Q:
        assert all(type(x) is Fraction for x in got.basis.entries)
        assert all(x is Q.zero for x in got.basis.entries if not x)


# Rows with huge entries, and their exact kernel bases.  Each defeats a
# kernel solved mod the prime P = 2^61 - 1 and lifted by rational
# reconstruction below 2^30: [P, 1] has rank 0 mod P, 2^-40 = 2^21 mod P,
# and -3^20 has no reconstruction below 2^30.
_HUGE_ROWS = [
    ([2**61 - 1, 1], ["1", str(-(2**61 - 1))]),
    ([1, -2**40], ["1", "1/1099511627776"]),
    ([3**20, 1], ["1", str(-3**20)]),
]


@pytest.mark.parametrize("row, basis", _HUGE_ROWS)
def test_kernels_of_huge_entry_rows_are_exact(row, basis):
    m = Matrix.from_rows(Q, [[Fraction(x) for x in row]])
    k = m.kernel_basis()
    assert k == _oracle_kernel(Q, integer_rows(m.to_rows()), m.ncols)
    assert [str(x) for x in k.basis.entries] == basis and k.pivots == (0,)


def test_huge_entry_kernels_survive_optimized_mode():
    """Under python -O, which strips asserts, the rows with huge entries
    still get their exact kernels."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from frobstab.exactfield import Field\n"
        "from frobstab.linalg import Matrix\n"
        f"rows = {[row for row, _ in _HUGE_ROWS]!r}\n"
        "for row in rows:\n"
        "    k = Matrix.from_rows(Field.rationals(), [[Fraction(x) for x in row]]).kernel_basis()\n"
        "    print(sys.flags.optimize, *k.pivots, *map(str, k.basis.entries))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [" ".join(["1", "0", *basis]) for _, basis in _HUGE_ROWS]


# kernel / image -----------------------------------------------------


def test_kernel_examples():
    assert mat(Q, [[0, 0], [0, 0]]).kernel_basis().dim == 2
    assert Matrix.identity(Q, 3).kernel_basis().dim == 0
    k = mat(GF2, [[1, 1]]).kernel_basis()
    assert k.dim == 1
    assert k.basis_vectors() == [(1, 1)]


def test_rank_nullity_random():
    rng = random.Random(5)
    for field in (Q, GF3):
        for _ in range(20):
            m = rand_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            assert m.rank() + m.kernel_basis().dim == m.ncols
            # kernel vectors are genuine solutions
            for v in m.kernel_basis().basis_vectors():
                assert not any(m.apply(v))


def test_image_basis():
    m = mat(Q, [[1, 2], [2, 4], [0, 0]])
    im = m.image_basis()
    assert im.dim == 1
    assert im.contains((1, 2, 0))
    assert not im.contains((0, 1, 0))


# subspace algebra ----------------------------------------------------


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(Q, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.from_vectors(Q, 3, [[1, 2, 1], [2, 3, 1]])
    assert a == b
    assert a.dim == 2


def test_sum_and_intersect_dims():
    e1 = Subspace.from_vectors(Q, 3, [[1, 0, 0]])
    e2 = Subspace.from_vectors(Q, 3, [[0, 1, 0]])
    plane = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
    assert (e1 + e2) == plane
    assert intersect(e1, e2).dim == 0
    assert intersect(plane, e1) == e1


def test_intersect_dimension_formula_random():
    rng = random.Random(23)
    for field in (Q, GF2, GF5):
        for _ in range(15):
            amb = rng.randint(2, 6)
            a = Subspace.from_vectors(
                field, amb,
                [rand_matrix(field, rng, 1, amb).row(0) for _ in range(rng.randint(0, amb))],
            )
            b = Subspace.from_vectors(
                field, amb,
                [rand_matrix(field, rng, 1, amb).row(0) for _ in range(rng.randint(0, amb))],
            )
            s = a + b
            i = intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert a.contains_subspace(i) and b.contains_subspace(i)
            assert s.contains_subspace(a) and s.contains_subspace(b)


def test_quotient_dim_and_errors():
    plane = Subspace.from_vectors(Q, 3, [[1, 0, 0], [0, 1, 0]])
    line = Subspace.from_vectors(Q, 3, [[1, 1, 0]])
    off = Subspace.from_vectors(Q, 3, [[0, 0, 1]])
    assert plane.quotient_dim(line) == 1
    with pytest.raises(NotASubspace):
        plane.quotient_dim(off)


def test_complement_of():
    full = full_subspace(Q, 3)
    line = Subspace.from_vectors(Q, 3, [[0, 0, 1]])
    reps = dense_vectors(Q, 3, full.complement_of(line)[0])
    assert len(reps) == 2
    span = line + Subspace.from_vectors(Q, 3, reps)
    assert span == full


@st.composite
def _nested_subspaces(draw):
    """A random subspace and one spanned by random combinations of its basis."""
    field = draw(st.sampled_from([GF2, GF3, Q]))
    amb = draw(st.integers(1, 7))
    vecs = draw(st.lists(_matrices(field, 1, amb), max_size=amb + 1))
    big = Subspace.from_vectors(field, amb, [m.row(0) for m in vecs])
    coeffs = draw(st.lists(_matrices(field, 1, big.dim), max_size=big.dim + 1))
    span = big.basis.transpose()
    return big, Subspace.from_vectors(field, amb, [span.apply(c.row(0)) for c in coeffs])


@settings(max_examples=200, deadline=None)
@given(_nested_subspaces())
def test_complement_of_matches_the_re_reducing_loop(case):
    big, small = case
    reps = big.complement_of(small)[0]
    assert dense_vectors(big.field, big.ambient, reps) == complement_oracle(big, small)


@st.composite
def _quotients(draw):
    """A subspace, a subspace of it (zero, all of it, or the span of random
    combinations of its basis), and vectors inside it and at random."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    amb = draw(st.integers(1, 6))
    vecs = draw(st.lists(_matrices(field, 1, amb), max_size=amb + 1))
    big = Subspace.from_vectors(field, amb, [m.row(0) for m in vecs])
    span = big.basis.transpose()

    def inside(n):
        coeffs = draw(st.lists(_matrices(field, 1, big.dim), max_size=n))
        return [span.apply(c.row(0)) for c in coeffs]

    small = draw(st.sampled_from([Subspace.zero(field, amb), big, None]))
    if small is None:
        small = Subspace.from_vectors(field, amb, inside(big.dim + 1))
    anywhere = [m.row(0) for m in draw(st.lists(_matrices(field, 1, amb), max_size=3))]
    return big, small, inside(3) + anywhere


@settings(max_examples=200, deadline=None)
@given(_quotients())
def test_complement_coords_solve_in_reps_plus_small(case):
    """The coordinates of `complement_of` are the reps' part of the one
    solution of v in the basis reps + small's basis, and None for a v
    outside self."""
    big, small, vectors = case
    f, amb = big.field, big.ambient
    reps, coords = big.complement_of(small)
    basis = Matrix.from_rows(f, dense_vectors(f, amb, reps) + small.basis_vectors(), ncols=amb)
    for v in vectors:
        got = coords({j: x for j, x in enumerate(v) if x})
        x = basis.transpose().solve(v)
        assert (got is None) == (x is None) == (not big.contains(v))
        if x is not None:
            assert got == [(c, y) for c, y in enumerate(x[:len(reps)]) if y]


_small_q = st.one_of(
    st.sampled_from([Q.zero, Fraction(0), 0]),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def _caller_scalars(field):
    """Field scalars as callers pass them: GF(p) entries outside [0, p), and
    Q zeros as `Q.zero`, a fresh `Fraction(0)` and `int` 0."""
    return _small_q if field is Q else st.integers(-2 * field.p, 2 * field.p)


_PRODUCERS = ["from_vectors", "image_basis", "kernel_basis", "kron_kernel", "kron_image", "zero"]


@st.composite
def _produced_subspaces(draw, fields=(GF2, GF3, GF5, Q)):
    """A subspace over GF(2), GF(3), GF(5) or Q (or the given fields) from
    each producer of a `Subspace`, built from a random matrix or Kronecker
    sum."""
    field = draw(st.sampled_from(fields))
    scalar = _caller_scalars(field)

    def matrix(r, c):
        return Matrix.dense(field, r, c, tuple(draw(scalar) for _ in range(r * c)))

    producer = draw(st.sampled_from(_PRODUCERS))
    if producer in ("kron_kernel", "kron_image"):
        ar, ac, br, bc = (draw(st.integers(1, 2)) for _ in range(4))
        terms = [(1, matrix(ar, ac), matrix(br, bc)) for _ in range(draw(st.integers(0, 2)))]
        build = kron_kernel if producer == "kron_kernel" else kron_image
        return build(field, ar * br, ac * bc, terms)
    m = matrix(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    if producer == "from_vectors":
        return Subspace.from_vectors(field, m.ncols, m.to_rows())
    if producer == "zero":
        return Subspace.zero(field, m.ncols)
    return getattr(m, producer)()


def _span_by_oracle(field, ambient, vectors) -> tuple[Matrix, tuple]:
    """(RREF basis, pivots) of the span, by the dense oracle `rref_field`."""
    rows = [[field.add(field.zero, x) for x in v] for v in vectors]
    piv, rank = rref_field(rows, ambient, field)
    return Matrix.from_rows(field, rows[:rank], ncols=ambient), tuple(piv)


@settings(max_examples=300, deadline=None)
@given(_produced_subspaces(), st.data())
def test_one_residual_matches_the_dense_definition(s, data):
    """`reduce`, `contains`, `complement_of` with its coordinates and `+`
    against the dense oracles, on subspaces from every producer."""
    f, amb = s.field, s.ambient
    scalar = _caller_scalars(f)
    vector = st.lists(scalar, min_size=amb, max_size=amb).map(tuple)
    coeffs = st.lists(scalar, min_size=s.dim, max_size=s.dim)
    span = s.basis.transpose()
    coords = s.complement_of(Subspace.zero(f, amb))[1]
    inside = [span.apply(tuple(f.add(f.zero, c) for c in cs))
              for cs in data.draw(st.lists(coeffs, max_size=3))]
    if f is not Q:  # the same vectors, with entries outside [0, p)
        inside += [tuple(x + f.p * data.draw(st.integers(-2, 2)) for x in v) for v in inside]
    for v in data.draw(st.lists(vector, max_size=3)) + inside:
        want = reduce_by_definition(s, v)
        got = s.reduce(v)
        assert got == want
        if f is Q:
            assert all(x is Q.zero for x in got if not x)
        else:
            assert all(type(x) is int and 0 <= x < f.p for x in got)
        assert s.contains(v) == (not any(want))
        w = [f.add(f.zero, x) for x in v]
        got = coords(dict(enumerate(v)))
        want_coords = [(t, w[pc]) for t, pc in enumerate(s.pivots) if w[pc]]
        assert got == (None if any(want) else want_coords)
    assert all(s.contains(v) for v in inside)
    for method in (s.reduce, s.contains):
        with pytest.raises(DimensionMismatch):
            method(tuple(f.one for _ in range(amb + 1)))
    small = Subspace.from_vectors(f, amb, inside)
    reps = dense_vectors(f, amb, s.complement_of(small)[0])
    assert reps == complement_oracle(s, small)
    assert len(reps) == s.dim - small.dim
    assert _span_by_oracle(f, amb, small.basis_vectors() + reps) == (s.basis, s.pivots)
    other = data.draw(st.lists(vector, max_size=3))
    total = s + Subspace.from_vectors(f, amb, other)
    assert (total.basis, total.pivots) == _span_by_oracle(f, amb, s.basis_vectors() + other)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_producer_stores_primitive_integer_rows_over_q(data):
    """Over Q each producer stores the primitive integer multiples of the
    RREF rows (`assert_stored_rows`), and `_rref_row` reads them back as
    the RREF basis: `kernel_basis`, `kron_kernel`, `kron_image`,
    `from_vectors`, `image_basis` and `zero`."""
    s = data.draw(_produced_subspaces(fields=[Q]))
    assert_stored_rows(s.rows)
    read = [tuple(linalg._rref_row(row, 0).get(j, Q.zero) for j in range(s.ambient))
            for row in s.rows.values()]
    assert read == s.basis_vectors()
    assert all(type(x) is Fraction for v in read for x in v)


_nonzero_q = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=200, deadline=None)
@given(_rational_rows(), st.data())
def test_spans_of_rational_multiples_are_equal_and_hash_equal(case, data):
    """Vectors and nonzero rational multiples of them span equal, hash
    equal subspaces, through `from_vectors`, `image_basis` (of the vectors
    as columns) and, for the rows' kernel, `kernel_basis`."""
    ncols, rows = case
    scaled = [[c * x for x in r] for c, r in zip(data.draw(st.lists(
        _nonzero_q, min_size=len(rows), max_size=len(rows))), rows)]
    pairs = [(Subspace.from_vectors(Q, ncols, vs),
              Matrix.from_rows(Q, vs, ncols=ncols).transpose().image_basis(),
              Matrix.from_rows(Q, vs, ncols=ncols).kernel_basis()) for vs in (rows, scaled)]
    for a, b in zip(*pairs):
        assert a == b and hash(a) == hash(b)
    assert pairs[0][0] == pairs[0][1]


@pytest.mark.parametrize("field", [GF3, Q])
def test_equal_spans_hash_equal_and_work_as_set_members(field):
    """Equal spans from different generating sets, and from different
    producers, are equal, hash equal and are one set member."""
    g = [[field.from_int(x) for x in row] for row in ([1, 2, 0, 1], [0, 1, 1, 2])]
    a = Subspace.from_vectors(field, 4, g)
    b = Subspace.from_vectors(field, 4, [[field.add(x, y) for x, y in zip(*g)],
                                         [field.mul(field.from_int(2), x) for x in g[1]], g[0]])
    image = Matrix.from_rows(field, g).transpose().image_basis()
    kernel = Matrix.from_rows(field, g).kernel_basis().basis.kernel_basis()
    line, zero = Subspace.from_vectors(field, 4, g[:1]), Subspace.zero(field, 4)
    for s in (b, image, kernel, a + line, zero + a):
        assert s == a and hash(s) == hash(a)
    assert line != a
    assert {a, b, image, kernel, line, zero} == {a, line, zero}
    assert len({a, b, image, kernel}) == 1


def test_reduce_membership():
    s = Subspace.from_vectors(GF3, 4, [[1, 0, 2, 0], [0, 1, 1, 0]])
    v = s.basis.row(0)
    coords = s.complement_of(Subspace.zero(GF3, 4))[1]
    assert s.contains(v)
    assert coords(dict(enumerate(v))) == [(0, 1)]
    w = (0, 0, 0, 1)
    assert not s.contains(w)
    assert coords({3: 1}) is None


# kron / vec ---------------------------------------------------------


def test_vec_convention():
    m = mat(Q, [[1, 2], [3, 4]])
    assert vec(m) == tuple(Q.from_int(x) for x in (1, 3, 2, 4))
    assert unvec(Q, vec(m), 2, 2) == m


def test_kron_identity():
    assert kron(Matrix.identity(Q, 2), Matrix.identity(Q, 2)) == Matrix.identity(Q, 4)


def test_kron_entry_placement():
    a = mat(Q, [[0, 1], [0, 0]])
    b = mat(Q, [[1, 0], [0, 2]])
    k = kron(a, b)
    # block (0,1) of k is b, every other block zero
    assert at(k, 0, 2) == 1 and at(k, 1, 3) == 2
    assert at(k, 0, 0) == 0 and at(k, 2, 2) == 0


def test_vec_of_triple_product_matches_kron_route():
    """Derived oracle: direct expansion of A @ X @ B vs kron(B^T, A) @ vec(X)."""
    rng = random.Random(101)
    for field in (GF3, Q):
        for _ in range(25):
            n, m, p, q = (rng.randint(1, 3) for _ in range(4))
            a = rand_matrix(field, rng, n, m)
            x = rand_matrix(field, rng, m, p)
            b = rand_matrix(field, rng, p, q)
            direct = vec(a @ x @ b)
            route = kron(b.transpose(), a).apply(vec(x))
            assert direct == route


def test_kron_sum_matches_entrywise_definition():
    """Mixed terms, including n x 1 and 1 x n factors, against a[i,j] * b[k,l]."""
    rng = random.Random(17)
    shapes = [((2, 1), (1, 3)), ((1, 2), (2, 1)), ((2, 2), (1, 1)), ((1, 1), (2, 2))]
    for field in (Q, GF5):
        for (ar, ac), (br, bc) in shapes:
            terms = [
                (1, rand_matrix(field, rng, ar, ac), rand_matrix(field, rng, br, bc))
                for _ in range(3)
            ]
            got = kron_sum(field, ar * br, ac * bc, terms)
            for r in range(ar * br):
                for c in range(ac * bc):
                    want = field.zero
                    for _, a, b in terms:
                        x = field.mul(at(a, r // br, c // bc), at(b, r % br, c % bc))
                        want = field.add(want, x)
                    assert at(got, r, c) == want
            assert kron(*terms[0][1:]) == kron_sum(field, ar * br, ac * bc, terms[:1])


def test_kron_sum_empty_is_zero_matrix():
    assert kron_sum(GF3, 4, 6, []) == zeros(GF3, 4, 6)
    assert kron_sum(Q, 0, 3, []) == zeros(Q, 0, 3)


def test_kron_sum_guards():
    a, b = Matrix.identity(Q, 2), mat(Q, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        kron_sum(Q, 2, 4, [(1, a, b), (1, a, a)])
    with pytest.raises(DimensionMismatch):
        kron_sum(Q, 4, 2, [(1, a, b)])
    with pytest.raises(FieldMismatch):
        kron_sum(Q, 2, 4, [(1, a, mat(GF2, [[1, 0]]))])
    with pytest.raises(FieldMismatch):
        kron_sum(GF2, 2, 4, [(1, a, b)])


def test_kron_sum_reduces_noncanonical_gf5_entries():
    a = Matrix.dense(GF5, 2, 2, (7, -3, 0, 12))
    b = Matrix.dense(GF5, 1, 2, (6, -1))
    c = Matrix.dense(GF5, 2, 2, (-1, 5, 9, 1))
    assert kron(a, b) == Matrix.dense(GF5, 2, 4, (2, 3, 2, 3, 0, 0, 2, 3))
    got = kron_sum(GF5, 2, 4, [(1, a, b), (1, c, b)])
    assert all(0 <= x < 5 for x in got.entries)
    assert got == kron(a, b) + kron(c, b)


def _from_rows(field, nrows, ncols, rows):
    """The nrows x ncols matrix whose nonzero rows are rows {row: {column: x}}."""
    return Matrix.from_rows(field, [
        [rows.get(r, {}).get(c, field.zero) for c in range(ncols)] for r in range(nrows)
    ], ncols=ncols)


@st.composite
def _field_kron_terms(draw):
    """(field, nrows, ncols, terms) over GF(2), GF(3), GF(5) or Q: up to
    three (c, a, b) terms of one shape, with 0-row, 0-column, n x 1, 1 x n
    and 1 x 1 factors, and c = 0, c = -1 or a field scalar as a caller
    passes it.  Over Q with mixed and huge denominators, and zeros given as
    `Q.zero`, a fresh `Fraction(0)` and `int` 0; over GF(p) with entries
    and coefficients not reduced mod p."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    scalar = _q_scalars if field is Q else st.integers(-2 * field.p, 2 * field.p)
    coefficient = st.one_of(st.sampled_from([0, -1]), scalar)
    ar, ac, br, bc = (draw(st.integers(0, 3)) for _ in range(4))

    def factor(r, c):
        return Matrix.dense(field, r, c, tuple(draw(scalar) for _ in range(r * c)))

    terms = [(draw(coefficient), factor(ar, ac), factor(br, bc))
             for _ in range(draw(st.integers(0, 3)))]
    return field, ar * br, ac * bc, terms


@settings(max_examples=300, deadline=None)
@given(_field_kron_terms())
def test_kron_terms_match_the_entrywise_definition(case):
    """`kron_sum`, `kron_kernel` and `kron_image` of (c, a, b) terms against
    the sum built entry by entry and reduced by the dense oracles."""
    field, nrows, ncols, terms = case
    dense = kron_sum_by_definition(field, nrows, ncols, terms)
    with _field_route():
        want = dense.kernel_basis(), dense.image_basis()
    assert kron_sum(field, nrows, ncols, iter(terms)) == dense
    assert kron_kernel(field, nrows, ncols, iter(terms)) == want[0]
    assert kron_image(field, nrows, ncols, iter(terms)) == want[1]


@settings(max_examples=300, deadline=None)
@given(_field_kron_terms())
def test_rational_kron_sum_matches_field_definition(case):
    field, nrows, ncols, terms = case
    want = kron_sum_by_definition(field, nrows, ncols, terms)
    got = kron_sum(field, nrows, ncols, iter(terms))
    assert got.shape == (nrows, ncols)
    assert got.entries == want.entries
    if field is Q:
        assert all(type(x) is Fraction for x in got.entries)
        assert all(x is Q.zero for x in got.entries if not x)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in got.entries)
    # _kron_rows gives D times the sum, or its transpose, as int cells: one
    # positive D (1 over GF(p)), with cancelled cells and empty rows dropped.
    for transpose, dense in ((False, want), (True, want.transpose())):
        d, rows = _kron_rows(field, nrows, ncols, iter(terms), transpose)
        assert d > 0 and (field is Q or d == 1)
        assert list(rows) == sorted(rows)
        assert all(row for row in rows.values())
        assert all(type(x) is int and x for row in rows.values() for x in row.values())
        scaled = Matrix.dense(field, dense.nrows, dense.ncols, tuple(d * x for x in dense.entries))
        assert _from_rows(field, dense.nrows, dense.ncols, rows) == scaled
    # Clearing a factor leaves it equal to what it was.
    for _, a, _ in terms:
        assert a == Matrix.dense(field, a.nrows, a.ncols, a.entries)


def test_scaled_kron_sum_keeps_kernel_and_image():
    half, third = Fraction(1, 2), Fraction(-1, 3)
    a = Matrix.from_rows(Q, [[half, third], [1, Fraction(5, 7)]])
    b = Matrix.from_rows(Q, [[third, 2], [Fraction(1, 6), -1]])  # rank 1
    c = Matrix.from_rows(Q, [[1, half], [2, 1]])
    terms = [(1, a, b), (1, c, b)]
    exact = kron_sum(Q, 4, 4, terms)
    # D = lcm(42 * 6, 2 * 6): each term over the product of its factors'
    # least common denominators
    d, rows = _kron_rows(Q, 4, 4, terms)
    scaled = _from_rows(Q, 4, 4, rows)
    assert d == 252
    assert scaled.entries == tuple(
        Q.zero if not x else int(252 * x) for x in exact.entries
    )
    d, rows = _kron_rows(Q, 4, 4, terms, transpose=True)
    assert d == 252 and _from_rows(Q, 4, 4, rows) == scaled.transpose()
    assert scaled.kernel_basis() == exact.kernel_basis() == kron_kernel(Q, 4, 4, terms)
    assert scaled.image_basis() == exact.image_basis() == kron_image(Q, 4, 4, terms)
    assert exact.kernel_basis().dim == 2  # the sum is kron(a + c, b)


@st.composite
def _kron_terms(draw):
    """(field, nrows, ncols, terms) over GF(2), GF(3), GF(5) or Q: up to
    three sparse or dense (1, a, b) terms of one shape, and sums that
    cancel."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    ar, ac, br, bc = (draw(st.integers(1, 3)) for _ in range(4))
    if field.kind == "rational":
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalar = st.integers(0, field.p - 1)
    scalar = st.one_of(st.just(field.zero), scalar)

    def factor(r, c):
        return Matrix.dense(field, r, c, tuple(draw(scalar) for _ in range(r * c)))

    terms = [(1, factor(ar, ac), factor(br, bc)) for _ in range(draw(st.integers(0, 3)))]
    if terms and draw(st.booleans()):
        _, a, b = terms[0]
        terms.append((1, -a, b))
    return field, ar * br, ac * bc, terms


@settings(max_examples=200, deadline=None)
@given(_kron_terms())
def test_kron_kernel_and_image_match_dense_sum(case):
    # The dense side is built and reduced by the oracles, not by the
    # package's Kronecker assembly or sparse route.
    field, nrows, ncols, terms = case
    dense = kron_sum_by_definition(field, nrows, ncols, terms)
    with _field_route():
        want = dense.kernel_basis(), dense.image_basis()
    assert kron_kernel(field, nrows, ncols, iter(terms)) == want[0]
    assert kron_image(field, nrows, ncols, iter(terms)) == want[1]


def test_kron_kernel_and_image_check_every_term():
    a, b = Matrix.identity(GF3, 2), Matrix.from_rows(GF3, [[1, 2]])
    for build in (kron_kernel, kron_image):
        with pytest.raises(DimensionMismatch):
            build(GF3, 2, 4, [(1, a, b), (1, a, a)])
        with pytest.raises(DimensionMismatch):
            build(GF3, 2, 4, [(1, a, b), (0, a, a)])
        with pytest.raises(FieldMismatch):
            build(GF3, 2, 4, [(1, a, Matrix.from_rows(GF5, [[1, 0]]))])


def test_kron_sum_over_q_empty_and_unit_shapes():
    zero = kron_sum(Q, 2, 3, [])
    assert zero == zeros(Q, 2, 3) and all(x is Q.zero for x in zero.entries)
    assert _kron_rows(Q, 2, 3, iter(())) == _kron_rows(GF3, 2, 3, iter(()), True) == (1, {})
    col = Matrix.dense(Q, 2, 1, (Fraction(1, 2), 0))
    row = Matrix.dense(Q, 1, 2, (Fraction(0), Fraction(-4, 3)))
    outer = (Q.zero, Fraction(-2, 3), Q.zero, Q.zero)  # col @ row, either way round
    assert kron(col, row).entries == outer and kron(row, col).entries == outer
    assert kron(row, col).entries[0] is Q.zero
    scalar = Matrix.dense(Q, 1, 1, (Fraction(3, 2),))
    assert kron_sum(Q, 1, 1, [(1, scalar, scalar), (1, scalar, scalar)]).entries == (Fraction(9, 2),)
    assert kron_sum(Q, 1, 1, [(1, scalar, scalar), (1, -scalar, scalar)]).entries[0] is Q.zero
    for transpose in (False, True):
        assert _kron_rows(Q, 1, 1, [(1, scalar, scalar), (1, -scalar, scalar)], transpose) == (4, {})


@st.composite
def _combination_terms(draw):
    """(field, nrows, ncols, terms) over GF(2), GF(3), GF(5) or Q: up to
    four (c, m) terms with zero and unreduced coefficients, and sums that
    cancel."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    scalar = _q_scalars if field is Q else st.integers(-2 * field.p, 2 * field.p)
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    def term():
        entries = tuple(draw(scalar) for _ in range(nrows * ncols))
        return draw(scalar), Matrix.dense(field, nrows, ncols, entries)

    terms = [term() for _ in range(draw(st.integers(0, 4)))]
    if terms and draw(st.booleans()):
        c, m = terms[0]
        terms.append((c, -m))
    return field, nrows, ncols, terms


@settings(max_examples=200, deadline=None)
@given(_combination_terms())
def test_linear_combination_matches_field_arithmetic(case):
    field, nrows, ncols, terms = case
    want = [field.zero] * (nrows * ncols)
    for c, m in terms:
        for t, x in enumerate(m.entries):
            want[t] = field.add(want[t], field.mul(c, x))
    got = linear_combination(field, nrows, ncols, iter(terms))
    assert got.shape == (nrows, ncols) and list(got.entries) == want
    if field is Q:
        assert all(type(x) is Fraction for x in got.entries)
        assert all(x is Q.zero for x in got.entries if not x)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in got.entries)


def test_linear_combination_guards():
    a = Matrix.identity(Q, 2)
    with pytest.raises(DimensionMismatch):
        linear_combination(Q, 2, 3, [(Q.one, a)])
    with pytest.raises(FieldMismatch):
        linear_combination(Q, 2, 2, [(Q.one, a), (Q.one, Matrix.identity(GF2, 2))])
    with pytest.raises(FieldMismatch):
        linear_combination(GF2, 2, 2, [(1, a)])


def _matrices(field, nrows, ncols):
    if field.kind == "rational":
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalar = st.integers(0, field.p - 1)
    return st.lists(scalar, min_size=nrows * ncols, max_size=nrows * ncols).map(
        lambda e: Matrix.dense(field, nrows, ncols, tuple(e))
    )


@st.composite
def _sandwich_terms(draw):
    field = draw(st.sampled_from([GF5, Q]))
    n, m, p, q = (draw(st.integers(1, 3)) for _ in range(4))
    a, c = draw(_matrices(field, n, m)), draw(_matrices(field, n, m))
    b, d = draw(_matrices(field, p, q)), draw(_matrices(field, p, q))
    return field, a, b, c, d, draw(_matrices(field, m, p))


@settings(max_examples=60, deadline=None)
@given(_sandwich_terms())
def test_kron_sum_applies_sum_of_sandwiches(terms):
    field, a, b, c, d, x = terms
    op = kron_sum(field, a.nrows * b.ncols, a.ncols * b.nrows,
                  [(1, b.transpose(), a), (1, d.transpose(), c)])
    assert op.apply(vec(x)) == vec(a @ x @ b + c @ x @ d)


def test_rational_zero_entries_are_the_field_zero_object():
    a = Matrix.from_rows(Q, [[Fraction(1, 2), Q.zero, Fraction(0)], [0, Fraction(-3), 2]])
    b = Matrix.from_rows(Q, [[Fraction(1, 2), Fraction(0), Q.zero], [1, Fraction(3), 2]])
    for got, want in (
        (a - a, (0,) * 6),
        (a + (-a), (0,) * 6),
        (a - b, (0, 0, 0, -1, -6, 0)),
        (a + b, (1, 0, 0, 1, 0, 4)),
        (-a, (Fraction(-1, 2), 0, 0, 0, 3, -2)),
    ):
        assert got.entries == want
        assert all(x is Q.zero for x in got.entries if not x)
    g = Matrix.from_rows(GF3, [[1, 2], [0, 1]])
    assert (g + g).entries == (2, 1, 0, 2) and (g - g).entries == (0,) * 4
    assert (-g).entries == (2, 1, 0, 2)


def _assert_field_scalars(field, xs) -> None:
    """Residues in [0, p) over GF(p); `Fraction`s over Q, each zero the
    field's `zero` object."""
    if field == Q:
        assert all(type(x) is Fraction for x in xs)
        assert all(x is field.zero for x in xs if not x)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in xs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([GF2, GF3, GF5, Q]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_matrix_arithmetic_matches_the_dense_definition(field, r, c, data):
    """`+`, `-`, unary `-`, `transpose` and `apply` against the dense
    definitions, on caller scalars (GF(p) entries outside [0, p), Q zeros
    of every kind) and on 0-row and 0-column shapes; mismatched operands
    raise DimensionMismatch or FieldMismatch."""
    f = field
    scalars = st.lists(_caller_scalars(f), min_size=r * c, max_size=r * c)
    a, b = (Matrix.dense(f, r, c, tuple(data.draw(scalars))) for _ in range(2))
    v = tuple(data.draw(st.lists(_caller_scalars(f), min_size=c, max_size=c)))
    in_field = Matrix.dense(f, r, c, tuple(f.add(f.zero, x) for x in a.entries))
    for got, want in (
        (a + b, entrywise_by_definition(a, b, f.add)),
        (a - b, entrywise_by_definition(a, b, f.sub)),
        (-a, neg_by_definition(a)),
        (a.transpose(), transpose_by_definition(in_field)),
    ):
        assert got == want and got.shape == want.shape
        _assert_field_scalars(f, got.entries)
    got = a.apply(v)
    assert got == apply_by_definition(a, v)
    _assert_field_scalars(f, got)
    for bad in (zeros(f, r + 1, c), zeros(f, r, c + 1)):
        for op in (operator.add, operator.sub):
            with pytest.raises(DimensionMismatch):
                op(a, bad)
    other = GF5 if f is Q else Q
    for op in (operator.add, operator.sub):
        with pytest.raises(FieldMismatch):
            op(a, zeros(other, r, c))
    with pytest.raises(DimensionMismatch):
        a.apply(v + (f.one,))


# caches filled at construction, and the sparse product ------------------


def _assert_filled(m: Matrix) -> None:
    """m's stored nonzeros and the lazily derived `_sparse_cols` equal what
    `Matrix.dense` reads from m's entries: the nonzeros in row-major order,
    with d least over Q (gcd(d, n...) = 1) and residues in [1, p) over
    GF(p)."""
    fresh = Matrix.dense(m.field, m.nrows, m.ncols, m.entries)
    assert m.nonzeros == fresh.nonzeros
    d, nz = m.nonzeros
    assert gcd(d, *(n for _, n in nz)) == 1
    assert m._sparse_cols == fresh._sparse_cols
    assert m._sparse_cols == [[(i, x) for i, x in enumerate(m.col(j)) if x] for j in range(m.ncols)]


def _assert_rows_canonical(s: Subspace) -> None:
    """s stores the sparse RREF rows that `Subspace.from_vectors` gives on
    its `basis` rows."""
    assert s.rows == Subspace.from_vectors(s.field, s.ambient, s.basis.to_rows()).rows


@settings(max_examples=200, deadline=None)
@given(_field_kron_terms(), st.data())
def test_built_matrices_carry_the_caches_a_fresh_read_gives(case, data):
    field, nrows, ncols, terms = case
    scalar = _q_scalars if field is Q else st.integers(-2 * field.p, 2 * field.p)
    for n in (0, 1, nrows):
        _assert_filled(Matrix.identity(field, n))
    krons = [kron(a, b) for _, a, b in terms]
    for m in krons:
        _assert_filled(m)
    _assert_filled(kron_sum(field, nrows, ncols, terms))
    combo = [(data.draw(scalar), m) for m in krons]
    _assert_filled(linear_combination(field, nrows, ncols, combo + [(-c, m) for c, m in combo[:1]]))
    for _, a, b in terms:
        _assert_filled(a @ a.transpose() if a.ncols != b.nrows else a @ b)
        _assert_filled(a.transpose())
        _assert_filled(-a)
    total = kron_sum(field, nrows, ncols, terms)
    for m in krons:
        _assert_filled(m + total)
        _assert_filled(m - total)
    for s in (kron_image(field, nrows, ncols, terms), kron_kernel(field, nrows, ncols, terms),
              total.kernel_basis(), total.image_basis(), Subspace.zero(field, ncols),
              Subspace.from_vectors(field, ncols, total.to_rows())):
        _assert_rows_canonical(s)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([GF2, GF3, GF5, Q]), st.integers(2, 4), st.data())
def test_shifted_modules_carry_the_caches_a_fresh_read_gives(field, n, data):
    # The free module's actions are krons, Ω^{-1} acts through quotient
    # actions and Ω through submodule actions; the module is conjugated by
    # a random P, so that over Q its actions have denominators.
    inst = truncated_polynomial(n, field)
    v = truncated_module(n, data.draw(st.integers(0, n - 2)), field)
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=v.dim ** 2, max_size=v.dim ** 2))
    p = Matrix.dense(field, v.dim, v.dim, tuple(map(field.from_int, entries)))
    p_inv = p.inverse()
    assume(p_inv is not None)
    m = ModuleRep(v.algebra, v.dim, tuple(p_inv @ a @ p for a in v.action), name=v.name)
    steps = data.draw(st.integers(1, 2))
    for shifted in (shift_plus(inst.system, m, steps), shift_minus(m, steps)):
        assert shifted.dim > 0
        for rho in shifted.action:
            _assert_filled(rho)


@st.composite
def _matmul_operands(draw):
    """(a, b) over GF(2), GF(3), GF(5) or Q, with 0-row and 0-column
    shapes, GF(p) entries outside [0, p), Q zeros as `Q.zero`, a fresh
    `Fraction(0)` and `int` 0, and products that cancel: [a | a] @ [b; -b]."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    scalar = _q_scalars if field is Q else st.integers(-2 * field.p, 2 * field.p)
    n, m, k = (draw(st.integers(0, 3)) for _ in range(3))
    a = [[draw(scalar) for _ in range(m)] for _ in range(n)]
    b = [[draw(scalar) for _ in range(k)] for _ in range(m)]
    if draw(st.booleans()):
        a = [r + r for r in a]
        b = b + [[field.neg(x) for x in r] for r in b]
        m *= 2
    return (Matrix.dense(field, n, m, tuple(x for r in a for x in r)),
            Matrix.dense(field, m, k, tuple(x for r in b for x in r)))


@settings(max_examples=300, deadline=None)
@given(_matmul_operands())
def test_matmul_matches_field_arithmetic(operands):
    a, b = operands
    got = a @ b
    assert got == matmul_by_definition(a, b) and got.shape == (a.nrows, b.ncols)
    _assert_filled(got)
    if a.field is Q:
        assert all(x is Q.zero for x in got.entries if not x)
    else:
        assert all(type(x) is int and 0 <= x < a.field.p for x in got.entries)


@settings(max_examples=50, deadline=None)
@given(_matmul_operands())
def test_matmul_rejects_bad_operands(operands):
    a, b = operands
    with pytest.raises(DimensionMismatch):
        a @ zeros(a.field, a.ncols + 1, b.ncols)
    other = GF5 if a.field is not GF5 else GF3
    with pytest.raises(FieldMismatch):
        a @ zeros(other, a.ncols, b.ncols)


def test_matmul_against_hand_example():
    a = mat(Q, [[1, 2], [3, 4]])
    b = mat(Q, [[5, 6], [7, 8]])
    assert a @ b == mat(Q, [[19, 22], [43, 50]])


def test_inverse_and_solve():
    rng = random.Random(3)
    for field in (Q, GF5):
        found = 0
        while found < 10:
            m = rand_matrix(field, rng, 3, 3)
            inv = m.inverse()
            if inv is None:
                continue
            found += 1
            assert m @ inv == Matrix.identity(field, 3)
            b = rand_matrix(field, rng, 3, 1).col(0)
            x = m.solve(b)
            assert x is not None and m.apply(x) == tuple(b)
    assert mat(Q, [[1, 1], [1, 1]]).inverse() is None
    assert mat(Q, [[1, 0], [1, 0]]).solve((Q.one, Q.zero)) is None


def test_shape_and_field_guards():
    with pytest.raises(DimensionMismatch):
        mat(Q, [[1, 2]]) @ mat(Q, [[1, 2]])
    with pytest.raises(FieldMismatch):
        mat(Q, [[1]]) @ mat(GF2, [[1]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(Q, [[Q.one], [Q.one, Q.zero]])
    with pytest.raises(DimensionMismatch):
        Matrix.dense(Q, 2, 2, (Q.one,) * 3)
    for t in (-1, 4, 9):
        with pytest.raises(DimensionMismatch):
            Matrix(GF2, 2, 2, (1, [(0, 1), (t, 1)]))


def test_transpose_involution_random():
    rng = random.Random(9)
    for _ in range(10):
        m = rand_matrix(GF5, rng, rng.randint(1, 4), rng.randint(1, 4))
        assert m.transpose().transpose() == m


def test_gf_p_equality_does_not_depend_on_spelling():
    a = Matrix.dense(GF5, 1, 2, (5, 7))
    b = Matrix.dense(GF5, 1, 2, (0, 2))
    assert a == b and hash(a) == hash(b)
    assert a.transpose().transpose() == a
    assert a + zeros(GF5, 1, 2) == b


@st.composite
def _two_spellings(draw):
    """(field, r, c, s, t): s and t spell the entries of one r x c matrix
    differently, GF(p) values off by multiples of p, and over Q zeros as
    `Q.zero`, `Fraction(0)` or `int` 0 and integers as `int` or `Fraction`."""
    field = draw(st.sampled_from([GF2, GF3, GF5, Q]))
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if field is Q:
        values = draw(st.lists(st.fractions(-6, 6, max_denominator=6), min_size=r * c,
                               max_size=r * c))

        def spell(x):
            if not x:
                return draw(st.sampled_from([Q.zero, Fraction(0), 0]))
            return draw(st.sampled_from([x, int(x)])) if x.denominator == 1 else x
    else:
        values = draw(st.lists(st.integers(0, field.p - 1), min_size=r * c, max_size=r * c))

        def spell(x):
            return x + field.p * draw(st.integers(-2, 2))
    return field, r, c, tuple(map(spell, values)), tuple(map(spell, values))


@settings(max_examples=200, deadline=None)
@given(_two_spellings(), st.data())
def test_every_spelling_and_producer_gives_one_canonical_matrix(case, data):
    field, r, c, s, t = case
    a, b = Matrix.dense(field, r, c, s), Matrix.dense(field, r, c, t)
    assert a == b and hash(a) == hash(b)
    n = max(r, c, 1)
    low = data.draw(st.lists(st.integers(-2 * n, 2 * n), min_size=n * n, max_size=n * n))
    u = Matrix.dense(field, n, n, tuple(
        field.one if i == j else field.from_int(x) if i > j else field.zero
        for (i, j), x in zip(((i, j) for i in range(n) for j in range(n)), low)))
    u_inv = u.inverse()
    v = truncated_module(n, n - 1, field)
    m = ModuleRep(v.algebra, n, tuple(u_inv @ x @ u for x in v.action), name="V")
    k = data.draw(st.integers(0, n))
    sub = Subspace.from_vectors(field, n, [u_inv.col(j) for j in range(k, n)])
    produced = [
        a, Matrix.identity(field, r), kron(a, b.transpose()),
        kron_sum(field, r * c, c * r, [(1, a, b.transpose()), (1, b, a.transpose())]),
        linear_combination(field, r, c, [(2, a), (-2, b)]),
        linear_combination(field, r, c, [(3, a), (1, b)]),
        a @ b.transpose(), a.transpose(), u_inv, unvec(field, s, r, c),
        *submodule(m, sub).action, *quotient_module(m, sub).action,
    ]
    assert vec(unvec(field, s, r, c)) == Matrix.dense(field, 1, r * c, s).entries
    for got in produced:
        assert got.field is field
        assert Matrix.dense(field, got.nrows, got.ncols, got.entries) == got
        _assert_field_scalars(field, got.entries)
