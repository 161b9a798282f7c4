"""Exact matrices and canonical subspaces over a `Field`.

Conventions fixed package-wide (the details are in the named functions):

* vectors are plain tuples of field scalars, and sparse vectors and rows
  are maps {column: nonzero};
* a matrix stores only its nonzeros (`Matrix.nonzeros`), and all its
  arithmetic reads them; only `Matrix.dense` takes a dense tuple (a parsed
  module is built from its nonzeros), and the dense `entries` view is
  built when first read;
* a subspace stores only its sparse RREF rows, so two subspaces are equal
  iff their stored rows are; over GF(p) each row holds its pivot's 1, and
  over Q it is the primitive integer multiple of its RREF row (`int`s with
  gcd 1 and a positive pivot entry), so over both fields the RREF row is
  row / row[pivot], and only `_rref_row` hands it out as field scalars,
  and `_over_pivots` as integers over one denominator; every producer
  builds those rows (`_row_images` maps them to the rows of an image
  without reducing again), and every membership test, residual
  or coordinate read reduces a sparse vector against them
  (`Subspace._residual`);
* there is one row reduction, `_rref`: one sparse insertion loop for both
  fields, on residues over GF(p) and on plain integers over Q, so kernels
  (`_row_kernel`) and images are exact over both; and there is one builder
  of sums of Kronecker products, `_kron_rows`, which returns integer rows
  over one common denominator; `kron_kernel` and `kron_image` reduce those
  rows without building the sum;
* maps are vectorized column-major, vec(X) stacking the columns of X,
  which gives the identity vec(A @ X @ B) == kron(B.transpose(), A) @ vec(X);
* every result holds residues in [0, p) over GF(p), and over Q gives the
  field's `zero` object for a zero, which the integer reads (`_cleared`)
  skip by identity.

Everything is pure exact arithmetic; there is no floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatch, FieldMismatch, NotASubspace
from .exactfield import RATIONAL, Field


def _check_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise FieldMismatch(f"mixed fields {a} and {b}")


def _rref(rows: list[dict], p: int) -> dict[int, dict]:
    """The one row reduction: the RREF of sparse rows {column: nonzero}
    (residues in [1, p) over GF(p); over Q, p = 0, `int`s or `Fraction`s,
    which `_content_free` turns into integer rows), as {pivot column: its
    row} in column order, each row in the form a `Subspace` stores.  The
    rows are consumed.

    Each row is inserted against the pivot rows found so far, each kept as
    its pivot entry and the rest: while its leading column is a pivot
    column, the row loses that pivot row's multiple (`_eliminate`); a row
    left with a new leading column becomes a pivot row (`_normal`), and a
    row that cancels is dropped.  One back-substitution pass, from the
    last pivot to the first, then clears the other pivot columns, since
    the later pivot rows are already reduced.
    """
    tails: dict[int, dict] = {}  # pivot column -> the rest of its row
    lead: dict[int, int] = {}  # pivot column -> its entry, over Q (1 over GF(p))
    for row in rows:
        if not p:
            row = _content_free(row)
        while row:
            c = min(row)
            g = row.pop(c)
            tail = tails.get(c)
            if tail is None:
                if g != 1:
                    g = _normal(row, g, p)
                if not p:
                    lead[c] = g
                tails[c] = row
                break
            _eliminate(row, g, tail, 1 if p else lead[c], p)
    cols = sorted(tails)
    for c in reversed(cols):
        row = tails[c]
        hits = [j for j in row if j in tails]
        if hits:
            row[c] = 1 if p else lead[c]  # scaled and divided with the row
            for j in hits:
                _eliminate(row, row.pop(j), tails[j], 1 if p else lead[j], p)
            g = row.pop(c)
            if not p:
                lead[c] = g
    for c in cols:
        tails[c][c] = 1 if p else lead[c]
    return {c: tails[c] for c in cols} if p else {c: _primitive(tails[c], c) for c in cols}


def _sparse_rows(field: Field, vectors, ncols: int) -> list[dict]:
    """Vectors of field scalars as fresh sparse maps {column: nonzero},
    residues in [1, p) over GF(p); DimensionMismatch if a length is not
    ncols."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != ncols:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {ncols}")
    if field.kind == RATIONAL:
        return [{j: x for j, x in enumerate(v) if x} for v in vectors]
    p = field.p
    return [{j: y for j, x in enumerate(v) if x and (y := x % p)} for v in vectors]


def _dense(row: dict, ncols: int, zero) -> list:
    out = [zero] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _eliminate(row: dict, g: int, tail: dict, a: int, p: int) -> None:
    """Clear the entry g just popped from row with the pivot row of pivot
    entry a and rest `tail`, in place.  Over GF(p), a = 1 and row loses g
    times tail.  Over Q it loses (g // a) times tail if a divides g, and
    otherwise, with h = gcd(a, g), it is scaled by a/h, loses (g/h) times
    tail and is divided by its content, which keeps its entries small.
    An entry that cancels is deleted."""
    if p:
        for j, y in tail.items():
            x = (row.get(j, 0) - g * y) % p
            if x:
                row[j] = x
            else:
                del row[j]
        return
    s = 1
    if g % a:
        s = gcd(a, g)
        s, g = a // s, g // s
        for j, x in row.items():
            row[j] = x * s
    else:
        g //= a
    for j, y in tail.items():
        x = row.get(j, 0) - g * y
        if x:
            row[j] = x
        else:
            del row[j]
    if s != 1 and row and (h := gcd(*row.values())) > 1:
        for j, x in row.items():
            row[j] = x // h


def _normal(tail: dict, g: int, p: int) -> int:
    """Normalise the new pivot row of pivot entry g != 1 and rest `tail` in
    place, and return its pivot entry: 1 over GF(p); over Q the row is
    divided by its content, signed so that the pivot entry is positive."""
    if p:
        g = pow(g, -1, p)
        for j, x in tail.items():
            tail[j] = x * g % p
        return 1
    h = gcd(g, *tail.values())
    if g < 0:
        h = -h
    if h != 1:
        for j, x in tail.items():
            tail[j] = x // h
    return g // h


def _content_free(row: dict) -> dict:
    """A sparse row of nonzero `int`s or `Fraction`s as a fresh integer row:
    times the lcm of its denominators, divided by its content."""
    d = lcm(*[x.denominator for x in row.values()])
    ints = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
    h = gcd(*ints.values())
    return {j: x // h for j, x in ints.items()} if h > 1 else ints


def _primitive(row: dict, pivot: int) -> dict:
    """The sparse integer row divided by its content, signed so that its
    entry at `pivot` is positive: the form a `Subspace` stores over Q."""
    h = gcd(*row.values())
    if row[pivot] < 0:
        h = -h
    return row if h == 1 else {j: x // h for j, x in row.items()}


def _rref_row(row: dict, p: int) -> dict:
    """The RREF row of a stored `Subspace` row, as field scalars: over
    GF(p) the row itself, whose pivot entry is 1, and over Q (p = 0) row /
    row[pivot] as `Fraction`s, the pivot being the row's first column.
    Every reader that hands the RREF row's scalars on divides through here;
    a membership test needs no division, since scaling a vector does not
    change whether it lies in a subspace."""
    if p:
        return row
    d = row[min(row)]
    return {j: Fraction(x, d) for j, x in row.items()}


def _over_pivots(rows) -> tuple[int, list[dict]]:
    """(D, rows): stored `Subspace` rows as integer rows over one common
    denominator D, the lcm of their pivot entries, so that each RREF row
    is its integer row over D and no `Fraction` is built.  Over GF(p)
    every pivot entry is 1, so D = 1 and the rows are the stored ones."""
    rows = list(rows)
    pivots = [row[min(row)] for row in rows]
    den = lcm(*pivots)
    if den == 1:
        return 1, rows
    return den, [row if (k := den // x) == 1 else {j: y * k for j, y in row.items()}
                 for row, x in zip(rows, pivots)]


def _row_images(space: "Subspace", ambient: int, image) -> "Subspace":
    """The subspace of F^ambient whose stored rows are the images of the
    stored rows of `space`, in their order, under a linear map that takes
    each RREF row of `space` to an RREF row, with its leading entry.

    `image(u)` takes a stored row u to D times its image, as a sparse map
    {column: int}, for one D > 0 over every row: over GF(p) D = 1, and the
    sums are reduced mod p here, once; over Q the scale of u and D does not
    matter, as each image is divided by its content (`_primitive`).  Each
    row is kept with its columns in order, so its first is its pivot."""
    p = space.field.characteristic
    rows = {}
    for u in space.rows.values():
        w = image(u)
        w = {t: y for t in sorted(w) if (y := w[t] % p if p else w[t])}
        c = next(iter(w))
        rows[c] = w if p else _primitive(w, c)
    return Subspace(space.field, ambient, rows)


def _cleared(pairs, zero) -> tuple[int, list[tuple[int, int]]]:
    """(d, [(t, n), ...]) for (t, x) pairs of rationals, in their order: d
    is the least common denominator of the x, and n = d * x for each
    nonzero x.  An x that is the `zero` object itself is skipped by
    identity before any `Fraction` attribute is read; `int` entries pass
    with denominator 1."""
    nz = [(t, x.as_integer_ratio()) for t, x in pairs if x is not zero]
    d = lcm(*[q for _, (_, q) in nz])
    return d, [(t, n * (d // q)) for t, (n, q) in nz if n]


def _integers(field: Field, pairs) -> tuple[int, list[tuple[int, int]]]:
    """(t, x) pairs of field scalars (residues in [1, p) over GF(p)) as
    `Matrix.nonzeros` holds them."""
    return _cleared(pairs, field.zero) if field.kind == RATIONAL else (1, pairs)


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix that stores only its nonzeros: `nonzeros` is (d,
    ((t, n), ...)) in t order, the row-major entry t being n / d.  Over Q, d
    is the least common denominator; over GF(p), d = 1 and each n is a
    residue in [1, p).  `__post_init__` sorts the pairs and over Q divides d
    and the n by their gcd, so `==` and `hash` compare canonical nonzeros.
    The dense row-major `entries` is built when first read."""

    field: Field
    nrows: int
    ncols: int
    nonzeros: tuple

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionMismatch("negative matrix dimension")
        d, nz = self.nonzeros
        nz = sorted(nz)
        if nz and (nz[0][0] < 0 or nz[-1][0] >= self.nrows * self.ncols):
            raise DimensionMismatch(f"entry index outside {self.nrows}x{self.ncols}")
        if d > 1 and (g := gcd(d, *[n for _, n in nz])) > 1:
            d //= g
            nz = [(t, n // g) for t, n in nz]
        object.__setattr__(self, "nonzeros", (d, tuple(nz)))

    # construction ----------------------------------------------------

    @staticmethod
    def dense(field: Field, nrows: int, ncols: int, entries) -> "Matrix":
        """The matrix with the given row-major entries, in any spelling of
        the field's scalars: GF(p) ints outside [0, p), and over Q `int`s,
        `Fraction`s and the `zero` object, which is skipped by identity."""
        if len(entries) != nrows * ncols:
            raise DimensionMismatch(f"entry count {len(entries)} != {nrows}x{ncols}")
        if field.kind == RATIONAL:
            return Matrix(field, nrows, ncols, _cleared(enumerate(entries), field.zero))
        p = field.p
        nz = [(t, y) for t, x in enumerate(entries) if x and (y := x % p)]
        return Matrix(field, nrows, ncols, (1, nz))

    @staticmethod
    def from_rows(field: Field, rows, ncols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols_seen = len(rows[0])
            if any(len(r) != ncols_seen for r in rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != ncols_seen:
                raise DimensionMismatch(f"rows have {ncols_seen} columns, expected {ncols}")
            ncols = ncols_seen
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        flat = tuple(x for r in rows for x in r)
        return Matrix.dense(field, len(rows), ncols, flat)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n, (1, [(i * (n + 1), 1) for i in range(n)]))

    # access ----------------------------------------------------------

    def _scalars(self) -> "tuple | list":
        """The nonzeros as (t, field scalar) pairs: n over GF(p), and n / d
        as a `Fraction` (the field's `one` for 1) over Q."""
        d, nz = self.nonzeros
        if self.field.kind != RATIONAL:
            return nz
        one = self.field.one
        return [(t, one if n == d else Fraction(n, d)) for t, n in nz]

    @cached_property
    def entries(self) -> tuple:
        """The dense row-major entries: residues in [0, p) over GF(p), and
        over Q the field's `zero` object for a zero."""
        ent = [self.field.zero] * (self.nrows * self.ncols)
        for t, x in self._scalars():
            ent[t] = x
        return tuple(ent)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.ncols] if self.ncols else ()

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.nrows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    # arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination(self.field, self.nrows, self.ncols, [(1, self), (1, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination(self.field, self.nrows, self.ncols, [(1, self), (-1, other)])

    def __neg__(self) -> "Matrix":
        return linear_combination(self.field, self.nrows, self.ncols, [(-1, self)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product over both factors' nonzeros, summed as `int`s and
        reduced mod p, or divided by d_a * d_b, once per entry."""
        _check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        m, k = self.ncols, other.ncols
        da, a_nz = self.nonzeros
        db, b_nz = other.nonzeros
        lines: dict[int, list] = {}  # other's nonzero (column, n) pairs by row
        for t, y in b_nz:
            s, j = divmod(t, k)
            lines.setdefault(s, []).append((j, y))
        acc: dict[int, int] = {}
        for t, x in a_nz:
            i, s = divmod(t, m)
            base = i * k
            for j, y in lines.get(s, ()):
                c = base + j
                acc[c] = acc.get(c, 0) + x * y
        nz = _canonical(acc, self.field.characteristic).items()
        return Matrix(self.field, self.nrows, k, (da * db, nz))

    def apply(self, v: tuple) -> tuple:
        """Matrix-vector product over the sparse columns; v has length ncols."""
        if len(v) != self.ncols:
            raise DimensionMismatch(f"apply {self.shape} to vector of length {len(v)}")
        w = _sparse_apply(self, _sparse_rows(self.field, (v,), self.ncols)[0])
        return tuple(_dense(w, self.nrows, self.field.zero))

    @cached_property
    def _sparse_cols(self) -> list[list[tuple]]:
        """Each column as its nonzero (row, value) pairs, in O(nnz)."""
        cols: list[list[tuple]] = [[] for _ in range(self.ncols)]
        for t, x in self._scalars():
            cols[t % self.ncols].append((t // self.ncols, x))
        return cols

    def transpose(self) -> "Matrix":
        n, m = self.nrows, self.ncols
        d, nz = self.nonzeros
        return Matrix(self.field, m, n, (d, [(t % m * n + t // m, x) for t, x in nz]))

    # reductions ------------------------------------------------------

    def rank(self) -> int:
        return len(_rref(_integer_rows(self), self.field.characteristic))

    def kernel_basis(self) -> "Subspace":
        """Right kernel {v : self @ v = 0} as a canonical subspace of F^ncols."""
        return _row_kernel(self.field, _integer_rows(self), self.ncols)

    def image_basis(self) -> "Subspace":
        """Column space as a canonical subspace of F^nrows: the row space of
        the columns read from the nonzeros (d keeps it)."""
        cols: list[dict] = [{} for _ in range(self.ncols)]
        for t, n in self.nonzeros[1]:
            i, j = divmod(t, self.ncols)
            cols[j][i] = n
        return Subspace(self.field, self.nrows, _rref(cols, self.field.characteristic))

    def inverse(self) -> "Matrix | None":
        """Inverse of a square matrix, or None if singular: the right half
        of the RREF of [dA | dI], whose pivots are its first n columns iff
        A is invertible."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        rows = _integer_rows(self)
        d = self.nonzeros[0]
        for i, row in enumerate(rows):
            row[n + i] = d
        p = self.field.characteristic
        piv = _rref(rows, p)
        if list(piv) != list(range(n)):
            return None
        right = [(i * n + j - n, x) for i, row in enumerate(piv.values())
                 for j, x in _rref_row(row, p).items() if j >= n]
        return Matrix(self.field, n, n, _integers(self.field, right))

    def solve(self, b: tuple) -> "tuple | None":
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        n, zero, p = self.ncols, self.field.zero, self.field.characteristic
        aug = [self.row(i) + (b[i],) for i in range(self.nrows)]
        piv = _rref(_sparse_rows(self.field, aug, n + 1), p)
        if n in piv:
            return None
        x = [zero] * n
        for c, row in piv.items():
            x[c] = _rref_row(row, p).get(n, zero)
        return tuple(x)


def _integer_rows(m: Matrix) -> list[dict]:
    """d times m's rows, as fresh sparse maps {column: n} for `_rref` and
    `_row_kernel`; scaling the rows keeps their span and their kernel."""
    rows: list[dict] = [{} for _ in range(m.nrows)]
    for t, n in m.nonzeros[1]:
        i, j = divmod(t, m.ncols)
        rows[i][j] = n
    return rows


def _row_kernel(field: Field, rows: list[dict], ncols: int) -> "Subspace":
    """{v : r . v = 0 for every row r}, for sparse rows {column: nonzero}
    as `_rref` takes them, which are consumed.  Each free column f of the
    rows' RREF R gives the kernel vector e_f - sum of R[c, f] e_c over the
    pivot rows, built as D times it in integers (the stored row c is
    row[c] R[c]; D is the lcm of the row[c], 1 over GF(p), where p - x is
    -x), and those vectors are reduced once more into the canonical basis.
    """
    p = field.characteristic
    pivots = _rref(rows, p)
    den = 1 if p else lcm(*[row[c] for c, row in pivots.items()])
    vecs = {f: {f: den} for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        k = den // row[c]
        for f, x in row.items():
            if f != c:
                vecs[f][c] = p - x * k
    return Subspace(field, ncols, _rref(list(vecs.values()), p))


def _canonical(w: dict, p: int) -> dict:
    """The sparse map w without its zeros; over GF(p) (p > 0) its plain-int
    sums are reduced mod p here, once."""
    if p:
        return {j: y for j, x in w.items() if (y := x % p)}
    return {j: x for j, x in w.items() if x}


def _sparse_apply(m: Matrix, v: dict) -> dict:
    """m @ v for a sparse vector v {column: value}, over m's sparse columns."""
    w: dict = {}
    for j, x in v.items():
        for i, y in m._sparse_cols[j]:
            w[i] = w.get(i, 0) + x * y
    return _canonical(w, m.field.characteristic)


def _kron_rows(field: Field, nrows: int, ncols: int, terms,
               transpose: bool = False) -> tuple[int, dict[int, dict]]:
    """(D, rows): D times the sum of c * kron(a, b) over the (c, a, b)
    terms, as its nonzero rows {row: {column: int}} in row order, or with
    `transpose` those of its transpose, the sum of c * kron(a^T, b^T), read
    from the same factors without transposing them.

    c is a field scalar or an `int`.  Each term adds c * a[i,j] * b[k,l] at
    (i*p + k, j*q + l), where b is p x q, and must have the given shape,
    even when c is zero.  The factors are read through their stored
    nonzeros, and c is folded into each term's integer scale: over Q, D is
    the least common multiple of the terms' denominators times c's; over
    GF(p), D = 1.  Products are summed as plain ints and each cell is
    reduced mod p once over GF(p); cells that cancel are dropped, and so
    are rows left empty.  `terms` is iterated once, so it may be a
    generator.
    """
    read = []
    den = 1
    for c, a, b in terms:
        _check_same_field(field, a.field)
        _check_same_field(field, b.field)
        if (a.nrows * b.nrows, a.ncols * b.ncols) != (nrows, ncols):
            raise DimensionMismatch(f"kron of {a.shape} and {b.shape} is not {nrows}x{ncols}")
        if c:
            da, a_nz = a.nonzeros
            db, b_nz = b.nonzeros
            d = da * db * c.denominator
            read.append((c.numerator, d, a.ncols, b.nrows, b.ncols, a_nz, b_nz))
            den = lcm(den, d)
    out: dict[int, dict] = {}
    for n, d, acols, p, q, a_nz, b_nz in read:
        s = n * (den // d)
        height, width = (q, p) if transpose else (p, q)
        lines: dict[int, list] = {}  # the nonzeros of b's rows (b^T's with `transpose`)
        for t, y in b_nz:
            k, l = divmod(t, q)
            if transpose:
                k, l = l, k
            lines.setdefault(k, []).append((l, y))
        for t, x in a_nz:
            i, j = divmod(t, acols)
            if transpose:
                i, j = j, i
            x *= s
            base = j * width
            for k, line in lines.items():
                r = i * height + k
                row = out.get(r)
                if row is None:
                    row = out[r] = {}
                for l, y in line:
                    c = base + l
                    row[c] = row.get(c, 0) + x * y
    p = field.characteristic
    rows = {}
    for r in sorted(out):
        row = _canonical(out[r], p)
        if row:
            rows[r] = row
    return den, rows


def kron_sum(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """Sum of c * kron(a, b) over the (c, a, b) terms, as an nrows x ncols
    matrix, for c a field scalar or an `int`.

    Each term adds c * a[i,j] * b[k,l] at (i*p + k, j*q + l), where b is
    p x q; every term must have the given shape, and an empty sum is the
    zero matrix.  It is built from the integer rows of `_kron_rows` and
    their D.  `terms` may be a generator.
    """
    den, rows = _kron_rows(field, nrows, ncols, terms)
    nz = [(r * ncols + c, x) for r, row in rows.items() for c, x in row.items()]
    return Matrix(field, nrows, ncols, (den, nz))


def kron_kernel(field: Field, nrows: int, ncols: int, *sums) -> "Subspace":
    """The common kernel of the Kronecker sums `kron_sum(field, nrows, ncols,
    terms)`, one for each `terms` in `sums`: the kernel of their row stack,
    which is never built as a matrix.  With no sums it is all of F^ncols.

    The integer rows of every sum (`_kron_rows`; its D leaves the kernel
    unchanged) go to one `_row_kernel`.
    """
    rows = [row for terms in sums for row in _kron_rows(field, nrows, ncols, terms)[1].values()]
    return _row_kernel(field, rows, ncols)


def kron_image(field: Field, nrows: int, ncols: int, terms) -> "Subspace":
    """The column space of `kron_sum(field, nrows, ncols, terms)`.

    It is the row space of the transpose, the sum of c * kron(a^T, b^T),
    whose integer rows `_kron_rows` gives (its D leaves the row space
    unchanged), reduced by `_rref`.
    """
    rows = _kron_rows(field, nrows, ncols, terms, transpose=True)[1].values()
    return Subspace(field, nrows, _rref(list(rows), field.characteristic))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: kron(a, b)[i*p + k, j*q + l] = a[i,j] * b[k,l],
    the one-term `kron_sum`."""
    return kron_sum(a.field, a.nrows * b.nrows, a.ncols * b.ncols, [(1, a, b)])


def linear_combination(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """Sum of c * m over the (c, m) terms, each m an nrows x ncols matrix.

    Each m is read through its stored nonzeros and the products are summed
    as ints over one common denominator D (D = 1 over GF(p)), with one
    division by D over Q or one reduction mod p over GF(p) per entry that
    a product reached.
    """
    read = []
    den = 1
    for c, m in terms:
        if c:
            _check_same_field(field, m.field)
            if m.shape != (nrows, ncols):
                raise DimensionMismatch(f"term of shape {m.shape} is not {nrows}x{ncols}")
            d, nz = m.nonzeros
            read.append((c, d * c.denominator, nz))
            den = lcm(den, d * c.denominator)
    acc: dict[int, int] = {}
    for c, d, nz in read:
        s = c.numerator * (den // d)
        for t, n in nz:
            acc[t] = acc.get(t, 0) + s * n
    nz = _canonical(acc, field.characteristic).items()
    return Matrix(field, nrows, ncols, (den, nz))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient in canonical (reduced row echelon) form.

    It stores only its sparse rows, {pivot column: row as {column:
    nonzero}} in column order, zero rows dropped.  Over GF(p) a row is the
    RREF row, with its pivot's 1 and residues in [1, p); over Q it is the
    RREF row's primitive integer multiple: `int`s with gcd 1 and a positive
    pivot entry, which is the row's denominator.  So the RREF row is row /
    row[pivot] (`_rref_row`), the form is canonical, and two Subspace
    values are equal (and hash equal) iff they are the same subspace.
    `pivots` and `dim` are read off the rows, and `basis`, the RREF basis,
    is built when first read.  `reduce`, `contains` and the coordinates of
    `complement_of` read the rows through the one residual, `_residual`.
    """

    field: Field
    ambient: int
    rows: dict[int, dict]

    def __hash__(self) -> int:
        rows = frozenset((c, frozenset(row.items())) for c, row in self.rows.items())
        return hash((self.field, self.ambient, rows))

    @staticmethod
    def from_vectors(field: Field, ambient: int, vectors) -> "Subspace":
        rows = _sparse_rows(field, vectors, ambient)
        return Subspace(field, ambient, _rref(rows, field.characteristic))

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, {})

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Matrix:
        """The RREF basis as a dim x ambient matrix of the stored rows, over
        the lcm of their pivot entries (`_over_pivots`)."""
        a = self.ambient
        den, rows = _over_pivots(self.rows.values())
        nz = [(t * a + j, x) for t, row in enumerate(rows) for j, x in row.items()]
        return Matrix(self.field, self.dim, a, (den, nz))

    def basis_vectors(self) -> list[tuple]:
        return [self.basis.row(i) for i in range(self.dim)]

    def reduce(self, v: tuple) -> tuple:
        """Residual of v after subtracting its projection onto the basis.

        The residual is zero iff v lies in the subspace, and is the canonical
        coset representative supported off the pivot columns otherwise.
        """
        w = self._residual(_sparse_rows(self.field, (v,), self.ambient)[0])
        return tuple(_dense(w, self.ambient, self.field.zero))

    def _residual(self, v: dict) -> dict:
        """`reduce` of a sparse v {column: value}, as a sparse map of field
        scalars: empty iff v lies in the subspace.  In RREF, v's entry at a
        pivot is the multiple of that basis row to subtract, and the rows
        have zeros at each other's pivots.

        Over GF(p) each sum is reduced once, at the end (`_canonical`), and
        v is consumed.  Over Q v is cleared once, w = L e v, for e the lcm
        of v's denominators and L the lcm of the pivot entries of the rows
        that v meets; w then loses k = w[c] // row[c] times each such row,
        an exact quotient, in plain integers.  Only a nonzero residual is
        divided by L e into `Fraction`s, so a v inside builds none."""
        rows, p = self.rows, self.field.characteristic
        if p:
            for c in [c for c in v if c in rows]:
                g = v[c]
                for j, y in rows[c].items():
                    v[j] = v.get(j, 0) - g * y
            return _canonical(v, p)
        e, nz = _cleared(v.items(), self.field.zero)
        hit = [c for c, _ in nz if c in rows]
        den = lcm(*[rows[c][c] for c in hit])
        w = {j: n * den for j, n in nz} if den > 1 else dict(nz)
        for c in hit:
            row = rows[c]
            k = w[c] // row[c]
            for j, y in row.items():
                w[j] = w.get(j, 0) - k * y
        den *= e
        return {j: Fraction(x, den) for j, x in w.items() if x}

    def contains(self, v: tuple) -> bool:
        return not self._residual(_sparse_rows(self.field, (v,), self.ambient)[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not any(self._residual(dict(row)) for row in other.rows.values())

    def _require_inside(self, small: "Subspace", what: str) -> None:
        """NotASubspace, witnessed by the first basis row of `small` outside self."""
        self._check_compatible(small)
        for t, row in enumerate(small.rows.values()):
            if self._residual(dict(row)):
                raise NotASubspace(f"{what} a non-subspace", witness=t)

    def _check_compatible(self, other: "Subspace") -> None:
        _check_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient {self.ambient} vs {other.ambient}"
            )

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        f, amb = self.field, self.ambient
        rows = [dict(row) for s in (self, other) for row in s.rows.values()]
        return Subspace(f, amb, _rref(rows, f.characteristic))

    def quotient_dim(self, small: "Subspace") -> int:
        """dim(self / small); raises NotASubspace if small is not inside self."""
        self._require_inside(small, "quotient by")
        return self.dim - small.dim

    def complement_of(self, small: "Subspace") -> tuple[list[dict], Callable]:
        """(reps, coords): coset representatives for self / small, and the
        coordinates of a vector in them, from one reduction.

        Row t of this basis is kept unless a vector of small, in this basis
        (read at the pivots; a stored row of small is a multiple of one),
        ends at t: one reduction of small's coordinates in reverse order
        finds those end rows.  `reps` are the kept rows, in order, each the
        sparse RREF row {column: nonzero} as field scalars (`_rref_row`:
        over GF(p) the stored row itself, not a copy).  `coords(v)`, for a
        sparse v {column: value}, is None if v lies outside self, and
        otherwise the nonzero (c, x) pairs, in c order, with v - sum of x *
        reps[c] in small: v's coordinates, read and reversed the same way,
        reduced against the end rows, which clears every end and leaves the
        kept rows' coefficients.
        """
        kept, coords = self._complement(small)
        p = self.field.characteristic
        return [_rref_row(row, p) for row in kept], coords

    def _complement(self, small: "Subspace") -> tuple[list[dict], Callable]:
        """`complement_of` with the kept rows as they are stored, for a
        reader that takes them over one denominator (`_over_pivots`)."""
        self._require_inside(small, "complement of")
        k = self.dim
        at = {pc: k - 1 - t for t, pc in enumerate(self.pivots)}
        in_self = [{at[j]: x for j, x in row.items() if j in at} for row in small.rows.values()]
        ends = Subspace(self.field, k, _rref(in_self, self.field.characteristic))
        kept = [t for t in range(k) if k - 1 - t not in ends.rows]
        rows = list(self.rows.values())
        rep_of = {k - 1 - t: c for c, t in enumerate(kept)}

        def coords(v: dict) -> "list[tuple] | None":
            if self._residual(dict(v)):
                return None
            x = ends._residual({at[j]: y for j, y in v.items() if j in at})
            return sorted((rep_of[u], y) for u, y in x.items())

        return [rows[t] for t in kept], coords
