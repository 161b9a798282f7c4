"""Oracles and small accessors that only the tests use."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from frobstab import linalg
from frobstab.errors import (
    DimensionMismatch, EmbeddingNotInjective, FieldMismatch, NotALinearMap, NotInvariant,
)
from frobstab.exactfield import Field
from frobstab.algebra import StructureAlgebra
from frobstab.frobenius import FrobeniusSystem, derive_system
from frobstab.linalg import (
    Matrix, Subspace, kron, kron_image, kron_kernel, kron_sum, linear_combination,
)
from frobstab.modrep import ModuleRep, _surjection_terms, free_module


def vec(m: Matrix) -> tuple:
    """Column-major vectorization: vec(m)[j*nrows + i] = m[i, j], the
    row-major entries of m's transpose."""
    return m.transpose().entries


def unvec(field: Field, v: tuple, nrows: int, ncols: int) -> Matrix:
    """Inverse of `vec`: the transpose of v read row-major as ncols x nrows."""
    if len(v) != nrows * ncols:
        raise DimensionMismatch(f"vector length {len(v)} != {nrows}x{ncols}")
    return Matrix.dense(field, ncols, nrows, v).transpose()


def zeros(field: Field, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols zero matrix."""
    return Matrix(field, nrows, ncols, (1, ()))


def dual_bases(system: FrobeniusSystem) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """The pair of dual bases read off the Frobenius matrix C: a_i = e_i and
    b_i = row i of C, so that A^T B = C for A and B the matrices whose rows
    are the a_i and the b_i."""
    alg, c = system.algebra, system.element_matrix
    return (tuple(alg.basis_vector(i) for i in range(alg.dim)),
            tuple(c.row(i) for i in range(alg.dim)))


def frobenius_matrix(alg: StructureAlgebra, a_basis, b_basis) -> Matrix:
    """sum_i a_i b_i^T = A^T B entry by entry with field arithmetic: the
    Frobenius matrix of the pair of bases {a_i}, {b_i}."""
    f, n = alg.field, alg.dim
    out = [f.zero] * (n * n)
    for a_i, b_i in zip(a_basis, b_basis):
        for p in range(n):
            for q in range(n):
                out[p * n + q] = f.add(out[p * n + q], f.mul(a_i[p], b_i[q]))
    return Matrix.dense(f, n, n, tuple(out))


def rref_field(rows: list[list], ncols: int, field: Field) -> tuple[list[int], int]:
    """Dense Gauss-Jordan with field arithmetic, in place: the oracle that
    `linalg._rref` is held to over Q and over GF(p).

    Returns (pivot columns, rank); rows below the rank come out zero.
    """
    sub, mul, inv = field.sub, field.mul, field.inv
    one = field.one
    nrows = len(rows)
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        f = piv[c]
        if f != one:
            finv = inv(f)
            for j in range(c, ncols):
                if piv[j]:
                    piv[j] = mul(piv[j], finv)
        support = [j for j in range(c, ncols) if piv[j]]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            g = row[c]
            if g:
                for j in support:
                    row[j] = sub(row[j], mul(g, piv[j]))
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols, r


def rref_by_oracle(rows: list[dict], p: int) -> dict[int, dict]:
    """`linalg._rref` by the dense oracle `rref_field`: the sparse rows are
    written out densely over GF(p), or over Q for p = 0, up to their last
    nonzero column, and the nonzero rows of their RREF come back as sparse
    maps {pivot column: row} in the form a `Subspace` stores: the RREF row
    over GF(p), and over Q the RREF row times the lcm of its denominators,
    which is primitive with the pivot's 1 scaled to that lcm."""
    field = Field.prime(p) if p else Field.rationals()
    ncols = 1 + max((j for row in rows for j in row), default=-1)
    dense = [[row.get(j, field.zero) for j in range(ncols)] for row in rows]
    piv, _ = rref_field(dense, ncols, field)
    out = {c: {j: x for j, x in enumerate(dense[t]) if x} for t, c in enumerate(piv)}
    if p:
        return out
    return {c: {j: int(x * d) for j, x in row.items()}
            for c, row in out.items() for d in [lcm(*(x.denominator for x in row.values()))]}


def assert_stored_rows(rows: dict) -> None:
    """The rows {pivot column: row} are in the form a `Subspace` stores over
    Q: nonzero `int`s with gcd 1, the pivot the first column, with a
    positive entry, and zeros at the other pivots."""
    for c, row in rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
        assert not row.keys() & rows.keys() - {c}


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """(reduced echelon matrix, pivot columns, rank) of m: the RREF basis
    of m's row space, padded with zero rows to m's shape."""
    span = Subspace.from_vectors(m.field, m.ncols, m.to_rows())
    padding = [[m.field.zero] * m.ncols] * (m.nrows - span.dim)
    return Matrix.from_rows(m.field, span.basis.to_rows() + padding, ncols=m.ncols), span.pivots, span.dim


def reduce_by_definition(s: Subspace, v) -> tuple:
    """v minus, for each basis row in order, v's current entry at that
    row's pivot times the row, entry by entry with field arithmetic: the
    oracle for `Subspace.reduce`.  Each entry is first brought into the
    field (`field.add(field.zero, x)`), so GF(p) entries outside [0, p)
    come back as residues."""
    if len(v) != s.ambient:
        raise DimensionMismatch(f"vector length {len(v)} != ambient {s.ambient}")
    f = s.field
    w = [f.add(f.zero, x) for x in v]
    for t, pc in enumerate(s.pivots):
        c = w[pc]
        if c:
            row = s.basis.row(t)
            for j in range(pc, s.ambient):
                if row[j]:
                    w[j] = f.sub(w[j], f.mul(c, row[j]))
    return tuple(w)


def exact_kernel(field: Field, rows, ncols: int) -> Subspace:
    """{v : r . v = 0 for every row r}, for sparse rows {column: nonzero}
    as `linalg._row_kernel` takes them, by exact elimination: the rows' RREF
    R from `linalg._rref`, then the vectors e_f - sum of R[c, f] e_c with
    field arithmetic, one per free column f (R's stored rows read by
    `linalg._rref_row`), reduced by `Subspace.from_vectors`.  Both
    reductions go through `linalg._rref`, so this is an oracle for
    `linalg._row_kernel` only with `_rref` patched to `rref_by_oracle`;
    unpatched it checks how a kernel is assembled, not how it is
    reduced."""
    p = field.characteristic
    piv = {c: linalg._rref_row(row, p)
           for c, row in linalg._rref([dict(r) for r in rows], p).items()}
    vecs = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for c, row in piv.items():
            if row.get(f):
                v[c] = field.neg(row[f])
        vecs.append(v)
    return Subspace.from_vectors(field, ncols, vecs)


def integer_rows(rows) -> list[dict]:
    """Dense rows of rationals or ints as the sparse integer rows {column:
    int} that `linalg._row_kernel` takes, each scaled by the least common
    multiple of its denominators, which keeps its kernel."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out


def kron_sum_by_definition(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """Sum of c * kron(a, b) over the (c, a, b) terms, entry by entry with
    field arithmetic: each product c * a[i,j] * b[k,l] added at
    (i*p + k, j*q + l).  The oracle for `linalg._kron_rows` and every
    Kronecker sum built on it."""
    out = [field.zero] * (nrows * ncols)
    for c, a, b in terms:
        c = field.add(field.zero, c)
        p, q = b.nrows, b.ncols
        for i in range(a.nrows):
            for j in range(a.ncols):
                for k in range(p):
                    for l in range(q):
                        t = (i * p + k) * ncols + j * q + l
                        out[t] = field.add(out[t], field.mul(field.mul(c, at(a, i, j)), at(b, k, l)))
    return Matrix.dense(field, nrows, ncols, tuple(out))


def matmul_by_definition(a: Matrix, b: Matrix) -> Matrix:
    """a @ b entry by entry with field arithmetic: entry (i, j) is the sum
    over s of a[i,s] * b[s,j], each zero product skipped.  The oracle for
    `Matrix.__matmul__`."""
    f = a.field
    out = [f.zero] * (a.nrows * b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            for s in range(a.ncols):
                x, y = at(a, i, s), at(b, s, j)
                if x and y:
                    out[i * b.ncols + j] = f.add(out[i * b.ncols + j], f.mul(x, y))
    return Matrix.dense(f, a.nrows, b.ncols, tuple(out))


def at(m: Matrix, i: int, j: int):
    """Entry (i, j) of m."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError(f"({i},{j}) outside {m.nrows}x{m.ncols}")
    return m.entries[i * m.ncols + j]


def entrywise_by_definition(a: Matrix, b: Matrix, op) -> Matrix:
    """a op b entry by entry, op being the field's `add` or `sub`, a zero
    pair skipped and a zero result left as the field's `zero`: the oracle
    for `Matrix.__add__` and `__sub__`."""
    if a.field != b.field:
        raise FieldMismatch(f"mixed fields {a.field} and {b.field}")
    if a.shape != b.shape:
        raise DimensionMismatch(f"entrywise {a.shape} vs {b.shape}")
    zero = a.field.zero
    entries = [zero] * len(a.entries)
    for k, (x, y) in enumerate(zip(a.entries, b.entries)):
        if x is not zero or y is not zero:
            z = op(x, y)
            if z:
                entries[k] = z
    return Matrix.dense(a.field, a.nrows, a.ncols, tuple(entries))


def neg_by_definition(m: Matrix) -> Matrix:
    """-m entry by entry with the field's `neg`: the oracle for
    `Matrix.__neg__`."""
    neg, zero = m.field.neg, m.field.zero
    entries = tuple(zero if x is zero or not x else neg(x) for x in m.entries)
    return Matrix.dense(m.field, m.nrows, m.ncols, entries)


def transpose_by_definition(m: Matrix) -> Matrix:
    """m^T, each entry moved from (i, j) to (j, i): the oracle for
    `Matrix.transpose`."""
    e, n, c = m.entries, m.nrows, m.ncols
    return Matrix.dense(m.field, c, n, tuple(e[i * c + j] for j in range(c) for i in range(n)))


def apply_by_definition(m: Matrix, v) -> tuple:
    """m @ v row by row with field arithmetic, over v's nonzeros: the
    oracle for `Matrix.apply`."""
    if len(v) != m.ncols:
        raise DimensionMismatch(f"apply {m.shape} to vector of length {len(v)}")
    add, mul, zero = m.field.add, m.field.mul, m.field.zero
    nz = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for i in range(m.nrows):
        acc = zero
        for j, x in nz:
            y = m.entries[i * m.ncols + j]
            if y:
                acc = add(acc, mul(y, x))
        out.append(acc)
    return tuple(out)


def stack_rows(mats: list[Matrix]) -> Matrix:
    """The rows of the matrices, in order, as one matrix; they must share a
    field and a column count."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    f, ncols = mats[0].field, mats[0].ncols
    if any(m.field != f or m.ncols != ncols for m in mats):
        raise DimensionMismatch("fields or column counts differ")
    return Matrix.dense(f, sum(m.nrows for m in mats), ncols, tuple(x for m in mats for x in m.entries))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b, as the kernel of [A^T | -B^T]: a kernel vector (x, y) means
    sum x_t a_t = sum y_s b_s, a vector lying in both spans."""
    a._check_compatible(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.ambient)
    a_t, b_t = transpose_by_definition(a.basis), transpose_by_definition(b.basis)
    rows = [list(a_t.row(i)) + [a.field.neg(x) for x in b_t.row(i)] for i in range(a.ambient)]
    k = Matrix.from_rows(a.field, rows, ncols=a.dim + b.dim).kernel_basis()
    vecs = [apply_by_definition(a_t, v[:a.dim]) for v in k.basis_vectors()]
    return Subspace.from_vectors(a.field, a.ambient, vecs)


def hom_by_generators(m: ModuleRep, n_: ModuleRep) -> Subspace:
    """Hom_A(M, N) over all of Hom_k(M, N): H is A-linear iff
    action_N(g) H - H action_M(g) = 0 for each g in `algebra.generators`,
    and on vec(H) those are the Kronecker sums kron(I, action_N(g)) -
    kron(action_M(g)^T, I), whose common kernel `kron_kernel` solves.  The
    oracle for `stab.hom_A`, which solves on a presentation of M."""
    m.same_algebra(n_)
    f = m.algebra.field
    amb = n_.dim * m.dim
    eye_m, eye_n = Matrix.identity(f, m.dim), Matrix.identity(f, n_.dim)
    return kron_kernel(f, amb, amb, *(
        [(1, eye_m, n_.action[g]), (-1, m.action[g].transpose(), eye_n)]
        for g in m.algebra.generators
    ))


def hom_by_back_matrix(m: ModuleRep, n_: ModuleRep) -> Subspace:
    """Hom_A(M, N) on M's presentation with the back map built as a matrix:
    the kernel that `stab.hom_A` solves, times B^T for B = kron(E, I) +
    sum_q kron(S_q, rho_N(e_q)), one `kron_sum`, with E[g_j, j] = 1 at
    the seeds and the S_q read off the presentation's preimages.  The
    product's integer rows are keyed by their leading column and, over Q,
    divided by their content.  The oracle for `hom_A`'s direct map of each
    kernel row."""
    m.same_algebra(n_)
    pres = m._presentation
    f, s, dn = m.algebra.field, len(pres.seeds), n_.dim
    kernel = kron_kernel(f, pres.count * dn, s * dn, [
        (1, k_q, n_.action[q]) for q, k_q in pres.relations
    ])
    den, by_seed = pres.preimages
    s_q: dict[int, list] = {}
    for j, terms in enumerate(by_seed):
        for i, q, y in terms:
            s_q.setdefault(q, []).append((i * s + j, y))
    at_seeds = Matrix(f, m.dim, s, (1, [(g * s + j, 1) for j, g in enumerate(pres.seeds)]))
    back = kron_sum(f, m.dim * dn, s * dn, [(1, at_seeds, Matrix.identity(f, dn))] + [
        (1, Matrix(f, m.dim, s, (den, nz)), n_.action[q]) for q, nz in sorted(s_q.items())
    ])
    rows: dict[int, dict] = {}
    for t, x in (kernel.basis @ back.transpose()).nonzeros[1]:
        rows.setdefault(t // back.nrows, {})[t % back.nrows] = x
    by_pivot = {min(row): row for row in rows.values()}
    if not f.characteristic:
        by_pivot = {c: linalg._primitive(row, c) for c, row in by_pivot.items()}
    return Subspace(f, back.nrows, by_pivot)


def null_by_full_operator(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Subspace:
    """The image of T on all of Hom_k(M, N): `kron_image` over its dim M
    dim N columns, one Kronecker term (C[p,q], action_M(e_q)^T,
    action_N(e_p)) per nonzero of C.  The oracle for the null basis of
    `stab.stable_hom`, which spans it on the columns of M's dual seeds."""
    f, amb = m.algebra.field, n_.dim * m.dim
    c = system.element_matrix
    return kron_image(f, amb, amb, [
        (x, m.action[t % c.ncols].transpose(), n_.action[t // c.ncols]) for t, x in c._scalars()
    ])


def norm_image_by_full_columns(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Subspace:
    """The image of the norm h |-> sum_g g h(g^-1 -) of a group algebra on
    all of Hom_k(M, N), over its dim M dim N columns: the oracle for the
    norm image of `stab.tate0`."""
    g = system.algebra.group
    f, amb = m.algebra.field, n_.dim * m.dim
    return kron_image(f, amb, amb, [
        (1, m.action[g.inverse[gi]].transpose(), n_.action[gi]) for gi in range(system.algebra.dim)
    ])


def generators_by_closure(alg: StructureAlgebra) -> tuple[int, ...]:
    """The greedy generating set by dense products: e_i is kept unless it
    lies in the closure of span{unit} under left multiplication by the kept
    e_g, grown with `mul` and `Subspace.from_vectors` of the whole span each
    round.  The oracle for `StructureAlgebra.generators`, which grows the
    same spans on sparse rows, for any table."""
    f = alg.field
    gens: list[tuple] = []
    kept: list[int] = []
    span = Subspace.from_vectors(f, alg.dim, [alg.unit])
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        if span.contains(e):
            continue
        gens.append(e)
        kept.append(i)
        frontier = [alg.mul(e, v) for v in span.basis_vectors()]
        while frontier:
            added = [v for v in frontier if not span.contains(v)]
            span = Subspace.from_vectors(f, alg.dim, span.basis_vectors() + added)
            frontier = [alg.mul(g, v) for v in added for g in gens]
    return tuple(kept)


def center_by_full_basis(alg: StructureAlgebra) -> Subspace:
    """{z : e_i z = z e_i for every basis index i}: the dense kernel of the
    stacked commutator matrices L(e_i) - R(e_i), one block per basis
    element.  The oracle for `StructureAlgebra.center_basis`, which solves
    on the generators only."""
    rows = [r for left, right in zip(alg.left, alg.right) for r in (left - right).to_rows()]
    return Matrix.from_rows(alg.field, rows, ncols=alg.dim).kernel_basis()


def frobenius_ideal_by_definition(system: FrobeniusSystem) -> Subspace:
    """The image of sum_p L(e_p) R(c_p), for c_p row p of C: dense left and
    right multiplication matrices, one product per basis element.  The
    oracle for `stab.frobenius_ideal`, which spans the same image on the
    columns tau(e_j) read off the sparse cells."""
    alg = system.algebra
    c = system.element_matrix
    terms = [(1, left @ alg.right_mult_matrix(c.row(p))) for p, left in enumerate(alg.left)]
    return linear_combination(alg.field, alg.dim, alg.dim, terms).image_basis()


def multiplication_surjection(m: ModuleRep) -> Matrix:
    """Matrix of A (x) M_0 -> M, e_p (x) v_j |-> e_p v_j: the Kronecker sum of
    the terms whose common kernel `shift_minus` takes."""
    return kron_sum(m.algebra.field, m.dim, m.algebra.dim * m.dim, _surjection_terms(m))


def full_subspace(field: Field, ambient: int) -> Subspace:
    """All of F^ambient, built from its stored rows, the unit vectors."""
    return Subspace(field, ambient, {i: {i: 1} for i in range(ambient)})


def restricted_action(m: ModuleRep, sub: Subspace) -> tuple[Matrix, ...]:
    """Dense per-vector restriction of each basis action to sub: the oracle
    for `modrep.submodule`.  Raises NotInvariant, witnessed by the
    first basis index that leaves sub."""
    f, d = m.algebra.field, sub.dim
    coords = sub.complement_of(Subspace.zero(f, sub.ambient))[1]
    action = []
    for i, rho in enumerate(m.action):
        cols = []
        for v in sub.basis_vectors():
            c = coords(dict(enumerate(apply_by_definition(rho, v))))
            if c is None:
                raise NotInvariant(f"subspace not stable under basis {i}", witness=i)
            col = [f.zero] * d
            for t, x in c:
                col[t] = x
            cols.extend(col)
        action.append(transpose_by_definition(Matrix.dense(f, d, d, tuple(cols))))
    return tuple(action)


def quotient_action(m: ModuleRep, sub: Subspace) -> tuple[Matrix, ...]:
    """Dense per-column action on M / sub over the non-pivot coordinates:
    the oracle for `modrep.quotient_module`, with its NotInvariant witness."""
    restricted_action(m, sub)
    f = m.algebra.field
    piv = set(sub.pivots)
    npv = [q for q in range(m.dim) if q not in piv]
    action = []
    for rho in m.action:
        cols = [sub.reduce(rho.col(q)) for q in npv]
        action.append(Matrix.from_rows(f, [[w[q] for w in cols] for q in npv], ncols=len(npv)))
    return tuple(action)


def free_cover_embedding(system: FrobeniusSystem, m: ModuleRep) -> Matrix:
    """The canonical embedding M -> A (x) M_0, checked on the free module
    itself: the oracle for `modrep.canonical_embedding`, with its errors and
    witnesses.  Block p is action_M(c_p); the intertwining check multiplies
    phi by the dense free action kron(L(e_q), I), and the splitting check
    by kron(trace, I)."""
    alg = system.algebra
    f, n, md = alg.field, alg.dim, m.dim
    free = free_module(alg, md)
    c = system.element_matrix
    phi = Matrix.dense(f, n * md, md, tuple(
        x for p in range(n) for x in m.action_of(c.row(p)).entries
    ))
    for q in range(n):
        if free.action[q] @ phi != phi @ m.action[q]:
            raise NotALinearMap(f"embedding fails to intertwine basis {q}", witness=q)
    split = kron(Matrix.dense(f, 1, n, system.trace), Matrix.identity(f, md))
    if split @ phi != Matrix.identity(f, md):
        raise EmbeddingNotInjective("trace splitting does not recover the identity")
    return phi


def dense_vectors(field: Field, ambient: int, rows) -> list[tuple]:
    """Sparse rows {column: x} as dense tuples, with the field's zero."""
    return [tuple(row.get(j, field.zero) for j in range(ambient)) for row in rows]


def complement_oracle(big: Subspace, small: Subspace) -> list[tuple]:
    """The rows of big's basis kept by re-reducing small plus the rows kept
    so far: the oracle for `Subspace.complement_of`."""
    reps: list[tuple] = []
    work = small
    for v in big.basis_vectors():
        if not work.contains(v):
            reps.append(v)
            work = work + Subspace.from_vectors(big.field, big.ambient, [v])
    return reps


def quantum_exterior(q) -> FrobeniusSystem:
    """Lambda_q = k<x, y>/(x^2, y^2, yx - q xy) over Q on the basis 1, x,
    y, xy, with the trace "coefficient of xy".  Its Gram matrix has
    G[x][y] = 1 and G[y][x] = q, so for q != 1 the trace is not symmetric
    and the Nakayama automorphism G^-1 G^T is not the identity."""
    f = Field.rationals()
    one, zero = f.one, f.zero
    entries = [(0, j, j, one) for j in range(4)] + [(j, 0, j, one) for j in (1, 2, 3)]
    entries += [(1, 2, 3, one), (2, 1, 3, Fraction(q))]
    alg = StructureAlgebra.from_entries(f, 4, entries, (one, zero, zero, zero),
                                        name=f"quantum_exterior_{q}")
    return derive_system(alg, (zero, zero, zero, one))


def quantum_exterior_module(alg, lam) -> ModuleRep:
    """M_lam over `quantum_exterior`: x acts as E_21 and y as lam * E_21,
    and xy as 0; lam None is the point at infinity, where x acts as 0 and
    y as E_21."""
    f = alg.field
    e21 = Matrix.dense(f, 2, 2, (0, 0, 1, 0))
    zero = Matrix.dense(f, 2, 2, (0, 0, 0, 0))
    x, y = (zero, e21) if lam is None else (e21, Matrix.dense(f, 2, 2, (0, 0, lam, 0)))
    return ModuleRep(alg, 2, (Matrix.identity(f, 2), x, y, zero), name=f"M_{lam}")


def in_basis(system: FrobeniusSystem, pm: Matrix) -> FrobeniusSystem:
    """The same algebra and trace in the basis whose j-th vector is column j
    of the invertible matrix pm."""
    alg, f = system.algebra, system.algebra.field
    to_new = pm.inverse()
    cols = [pm.col(j) for j in range(alg.dim)]
    entries = [
        (a, b, c, v)
        for a in range(alg.dim) for b in range(alg.dim)
        for c, v in enumerate(to_new.apply(alg.mul(cols[a], cols[b]))) if v
    ]
    new = StructureAlgebra.from_entries(f, alg.dim, entries, to_new.apply(alg.unit))
    return derive_system(new, pm.transpose().apply(system.trace))


def module_in_basis(m: ModuleRep, alg: StructureAlgebra, pm: Matrix) -> ModuleRep:
    """M over `alg`, the algebra of M's in the basis of pm's columns
    (`in_basis`): the j-th basis element acts as M's element column j."""
    return ModuleRep(alg, m.dim, tuple(m.action_of(pm.col(j)) for j in range(alg.dim)),
                     name=m.name)


def random_basis(field: Field, n: int, seed: int) -> Matrix:
    """A seeded random invertible n x n matrix with entries in [-2, 2]."""
    rng = random.Random(seed)
    while True:
        pm = Matrix.dense(field, n, n, tuple(field.from_int(rng.randrange(-2, 3))
                                             for _ in range(n * n)))
        if pm.inverse() is not None:
            return pm
