"""Finite-dimensional associative unital algebras over an exact field.

An algebra is given by structure constants: cells[i][j] lists the nonzero
coefficients (k, c) of the product (basis i) * (basis j) = sum_k c * basis k.
Elements are coefficient tuples in the fixed basis.  Tensor and enveloping
constructions use the i-major basis order: basis (i, j) of A (x) B sits at
flat index i * dim(B) + j.

Algebras are immutable values.  Mathematical equality is structural on
(field, dim, cells, unit); the display name, basis names and group do not
participate.  Derived structure is cached on its instance: `generators`,
the table `_products` of basis elements that are products of them,
`enveloping`, and `left` / `right`, the only matrices built from `cells`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from math import lcm

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotAssociative,
    ParseError,
    UnitMismatch,
)
from .exactfield import RATIONAL, Field, field_from_json, field_to_json
from .linalg import Matrix, Subspace, linear_combination, _integer_rows, _integers, _row_kernel
from .linalg import _canonical, _rref, _sparse_rows

ALGEBRA_FORMAT = "frobstab-algebra/1"

# Most matrix entries a construction may allocate, checked before it does: a free
# module F, dim(A) * dim(F)^2 (stable Ext^+-5 of V1 over k[x]/(x^4) needs 1.7M, +-6
# 15M); A (x) A^op and A's bimodule action, dim(A)^4; Hom_k(M, N) over it, dim(A)^2 *
# (dim M * dim N)^2; the cells of an algebra built from entries, dim(A)^2.
MAX_FREE_ENTRIES = 2_000_000

Cell = tuple[tuple[int, object], ...]


def _normalize_cells(field: Field, dim: int, raw) -> tuple[tuple[Cell, ...], ...]:
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if not (cell := raw[i][j]):
                row.append(())
                continue
            acc: dict[int, object] = {}
            for k, v in cell:
                if not (0 <= k < dim):
                    raise IndexOutOfRange(f"product index {k} outside basis")
                acc[k] = field.add(acc.get(k, field.zero), v)
            row.append(tuple((k, v) for k, v in sorted(acc.items()) if v))
        out.append(tuple(row))
    return tuple(out)


@dataclass
class AlgebraReport:
    """Validation outcome: every violated triple / unit index, not just the first."""

    associative_failures: list[tuple[int, int, int]]
    unit_failures: list[int]


@dataclass(frozen=True)
class StructureAlgebra:
    field: Field
    dim: int
    cells: tuple[tuple[Cell, ...], ...]
    unit: tuple
    name: str = dataclass_field(default="A", compare=False)
    basis_names: tuple[str, ...] | None = dataclass_field(default=None, compare=False)
    group: object = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionMismatch("negative dimension")
        if len(self.unit) != self.dim:
            raise DimensionMismatch("unit vector has wrong length")
        if self.basis_names is not None and len(self.basis_names) != self.dim:
            raise DimensionMismatch("basis_names has wrong length")
        object.__setattr__(self, "cells", _normalize_cells(self.field, self.dim, self.cells))
        object.__setattr__(self, "unit", tuple(self.unit))
        if self.basis_names is not None:
            object.__setattr__(self, "basis_names", tuple(self.basis_names))

    @staticmethod
    def from_entries(field: Field, dim: int, entries, unit, name: str = "A",
                     basis_names=None, group=None) -> "StructureAlgebra":
        """Build from (i, j, k, coeff) quadruples; coeffs are field scalars.
        BudgetExceeded, witness dim, before dim^2 cells over MAX_FREE_ENTRIES."""
        _check_entries(dim * dim, dim, f"dim {dim} algebra table")
        raw = [[[] for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexOutOfRange(f"factor index ({i},{j}) outside basis")
            raw[i][j].append((k, v))
        return StructureAlgebra(field, dim, raw, unit, name, basis_names, group)

    def __repr__(self):
        return f"StructureAlgebra({self.name!r}, dim={self.dim})"

    # elements --------------------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        if not (0 <= i < self.dim):
            raise IndexOutOfRange(f"basis index {i}")
        z = self.field.zero
        return tuple(self.field.one if t == i else z for t in range(self.dim))

    def mul(self, x: tuple, y: tuple) -> tuple:
        """Product of two elements given by coefficient tuples."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length mismatch")
        add, mul = self.field.add, self.field.mul
        out = [self.field.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.cells[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = mul(xi, yj)
                for k, v in row[j]:
                    out[k] = add(out[k], mul(c, v))
        return tuple(out)

    def left_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of a |-> x * a in the basis: sum_i x_i left[i]."""
        if len(x) != self.dim:
            raise DimensionMismatch("element length mismatch")
        return linear_combination(self.field, self.dim, self.dim, zip(x, self.left))

    def right_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of a |-> a * x in the basis: sum_i x_i right[i]."""
        if len(x) != self.dim:
            raise DimensionMismatch("element length mismatch")
        return linear_combination(self.field, self.dim, self.dim, zip(x, self.right))

    # validation ------------------------------------------------------

    def validation_report(self) -> AlgebraReport:
        """The two-sided unit, and associativity as L(e_i) L(e_j) = L(e_i e_j)
        for the matrices `left`, whose columns k are e_i (e_j e_k) and (e_i e_j) e_k.

        The unit fails at the j where column j of L(unit) - I or of R(unit) -
        I is nonzero: unit e_j or e_j unit differs from e_j, each a sparse
        product (`_sum_of_products`).  Given the unit, `_first_failing`
        reads the i with (e_i x) y = e_i (x y) for all x, y; from its first
        failure on every i is read, listing each bad (i, j, k) in order.
        """
        u = _sparse_rows(self.field, [self.unit], self.dim)[0].items()
        cells, p = self.cells, self.field.characteristic
        unit_bad = [j for j in range(self.dim)
                    if _sum_of_products(cells, p, [(u, ((j, 1),))]) != {j: 1}
                    or _sum_of_products(cells, p, [(((j, 1),), u)]) != {j: 1}]
        first = 0 if unit_bad else _first_failing(
            self, lambda i: any(_product_failures(self, self.left, (i,))))
        bad = _product_failures(self, self.left, () if first is None else range(first, self.dim))
        return AlgebraReport([(i, j, k) for i, j, ks in bad for k in ks], unit_bad)

    def validate(self) -> None:
        rep = self.validation_report()
        if rep.associative_failures:
            raise NotAssociative(
                f"{len(rep.associative_failures)} associativity violations, "
                f"first at {rep.associative_failures[0]}",
                witness=rep.associative_failures,
            )
        if rep.unit_failures:
            raise UnitMismatch(
                f"unit fails on basis indices {rep.unit_failures}",
                witness=rep.unit_failures,
            )

    # derived structure ----------------------------------------------

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices whose elements generate A as an algebra.

        Greedy in basis order: e_i is kept unless it already lies in the
        subalgebra generated by the indices kept so far, which is the
        closure of span{unit} under left multiplication by them.  The
        closure is held as its stored rows, and e_g v is a sparse product
        (`_sum_of_products`).  Each new generator first multiplies the whole
        closure so far; after that, every round multiplies only the vectors
        the last round added.
        """
        f, n = self.field, self.dim
        p = f.characteristic
        span = Subspace(f, n, _rref(_sparse_rows(f, [self.unit], n), p))

        def times(g, v):
            return _sum_of_products(self.cells, p, [(((g, 1),), v.items())])

        kept: list[int] = []
        for i in range(n):
            if not span._residual({i: 1}):
                continue
            kept.append(i)
            frontier = [times(i, v) for v in span.rows.values()]
            while frontier:
                added = [v for v in frontier if span._residual(dict(v))]
                frontier = [times(g, v) for v in added for g in kept]
                span = Subspace(f, n, _rref([*map(dict, span.rows.values()), *added], p))
        return tuple(kept)

    @functools.cached_property
    def _products(self) -> tuple[int | None, dict[int, tuple[int, int, object]]]:
        """(u, table): u is the unit's index if the unit is a basis vector,
        else None, and the table maps q to (g, j, c) where e_g e_j = c e_q,
        read off a one-term cell cells[g][j] == ((q, c),), for g a generator
        and j a generator or an index entered before q.  It is grown
        breadth-first from the generators, in its dict order; neither a
        generator nor u is entered.  For the catalog algebras every other
        index is entered; in a general basis the cells are dense and few or
        none are."""
        gens = self.generators
        nonzero = [(i, x) for i, x in enumerate(self.unit) if x]
        u = nonzero[0][0] if len(nonzero) == 1 and nonzero[0][1] == self.field.one else None
        table: dict[int, tuple[int, int, object]] = {}
        queue = list(gens)
        for j in queue:  # breadth-first: the loop also reads the q appended below
            for g in gens:
                cell = self.cells[g][j]
                if len(cell) == 1 and (q := cell[0][0]) not in table and q not in gens and q != u:
                    table[q] = (g, j, cell[0][1])
                    queue.append(q)
        return u, table

    @functools.cached_property
    def left(self) -> tuple[Matrix, ...]:
        """left[i] is the matrix of a |-> e_i a; its column j is e_i e_j,
        read off the sparse cells."""
        f, n = self.field, self.dim
        return tuple(
            Matrix(f, n, n, _integers(f, [(k * n + j, v) for j, cell in enumerate(row)
                                          for k, v in cell]))
            for row in self.cells)

    @functools.cached_property
    def right(self) -> tuple[Matrix, ...]:
        """right[i] is the matrix of a |-> a e_i, left multiplication in A^op."""
        return opposite(self).left

    @functools.cached_property
    def _enveloping(self) -> "StructureAlgebra":
        return tensor(self, opposite(self), name=f"{self.name}^env")

    def center_basis(self) -> Subspace:
        """Common kernel of the commutator maps a |-> g a - a g over g in
        `generators`: one system of their integer rows, since scaling a row
        keeps its kernel.  Precondition: A passes `validate`; then, for each
        z, the a with a z = z a form a subalgebra, which is A once it holds
        the generators.
        """
        blocks = [self.left[g] - self.right[g] for g in self.generators]
        return _row_kernel(self.field, [r for b in blocks for r in _integer_rows(b)], self.dim)


def _first_failing(alg: StructureAlgebra, fails) -> int | None:
    """None if `fails(i)` is false for every i in `alg.generators`, and
    otherwise the first basis index i, in basis order, with `fails(i)`.

    The one generator rule.  `fails(i)` says that e_i lacks a property P,
    and the a in A with P form a subspace that holds 1 and is closed under
    left multiplication by each generator with P.  That subspace holds
    every word in the generators, and those span A, so P holds on A iff it
    holds on the generators; the full basis is read only to name the first
    failure.  Precondition: A passes `validate` (to check associativity
    itself, a two-sided unit suffices), and any module involved is a module.
    """
    if not any(map(fails, alg.generators)):
        return None
    return next(i for i in range(alg.dim) if fails(i))


def _actions_by_products(alg: StructureAlgebra, dim: int, build) -> tuple[Matrix, ...]:
    """rho(e_i) for every basis index i of A, on a module of dimension
    `dim`: `build(i)` for each generator and each index that is not in the
    table `alg._products`, the identity for the unit's index, and for each
    entry q -> (g, j, c), in table order, c^-1 rho(e_g) rho(e_j), since
    rho(e_g e_j) = rho(e_g) rho(e_j).  Precondition: A passes `validate`
    and the actions are a module's; for `modrep.submodule` and
    `modrep.quotient_module`, M is a module and sub is invariant."""
    f = alg.field
    u, table = alg._products
    action = {i: Matrix.identity(f, dim) if i == u else build(i)
              for i in range(alg.dim) if i not in table}
    for q, (g, j, c) in table.items():
        rho = action[g] @ action[j]
        action[q] = rho if c == f.one else linear_combination(f, dim, dim, [(f.inv(c), rho)])
    return tuple(action[i] for i in range(alg.dim))


def _sum_of_products(cells, p: int, terms) -> dict:
    """The sum of u v over the (u, v) terms, for structure constants
    `cells` over a field of characteristic p, as a sparse map {column:
    nonzero}, reduced mod p once.  Each factor is an iterable of (basis
    index, scalar) pairs, and u v = sum of u_i v_j e_i e_j, each e_i e_j
    read off cells[i][j].  No multiplication matrix is built; the cost is
    the total length of the nnz(u) nnz(v) cells read, small when the cells
    and the factors are sparse."""
    w: dict = {}
    for u, v in terms:
        for i, x in u:
            row = cells[i]
            for j, y in v:
                xy = x * y
                for k, z in row[j]:
                    w[k] = w.get(k, 0) + xy * z
    return _canonical(w, p)


def _integer_cells(alg: StructureAlgebra) -> tuple:
    """alg.cells over Q times the lcm d of their denominators, as `int`s,
    for `_sum_of_products` to add no `Fraction`s where a product's scale
    does not matter; over GF(p), alg.cells itself."""
    if alg.field.kind != RATIONAL:
        return alg.cells
    d = lcm(*[x.denominator for row in alg.cells for cell in row for _, x in cell])
    return tuple(tuple(tuple((k, x.numerator * (d // x.denominator)) for k, x in cell)
                          for cell in row) for row in alg.cells)


def _product_failures(alg: StructureAlgebra, action, indices):
    """Yield (i, j, ks) for each i in `indices` and basis j where action[i] @
    action[j] != sum_k c_k action[k] over cells[i][j], with ks the columns that
    differ; `action` is a module's action, or `alg.left` for associativity."""
    for i in indices:
        rho = action[i]
        for j, cell in enumerate(alg.cells[i]):
            lhs = rho @ action[j]
            rhs = linear_combination(alg.field, *lhs.shape, ((v, action[k]) for k, v in cell))
            if lhs != rhs:
                yield i, j, [k for k in range(lhs.ncols) if lhs.col(k) != rhs.col(k)]


def _check_entries(entries: int, witness: int, what: str) -> None:
    """BudgetExceeded, witnessed by the refused dimension, above MAX_FREE_ENTRIES."""
    if entries > MAX_FREE_ENTRIES:
        raise BudgetExceeded(f"{what} over {MAX_FREE_ENTRIES} entries", witness=witness)


def opposite(a: StructureAlgebra) -> StructureAlgebra:
    """Same space, reversed multiplication: cell [i][j] of A^op is cells[j][i]."""
    return StructureAlgebra(
        a.field, a.dim, tuple(zip(*a.cells)), a.unit,
        name=f"{a.name}^op", basis_names=a.basis_names,
    )


def tensor(a: StructureAlgebra, b: StructureAlgebra,
           name: str | None = None) -> StructureAlgebra:
    """Tensor product algebra on the i-major product basis, named `name` or else
    after both factors.  Cell ((i,j),(k,l)) is the product of the sparse cells
    a.cells[i][k] and b.cells[j][l], and the unit is 1 (x) 1."""
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    mul, nb = a.field.mul, b.dim
    raw = [[tuple((p * nb + q, mul(v, w)) for p, v in ca for q, w in cb)
            for ca in arow for cb in brow] for arow in a.cells for brow in b.cells]
    unit = tuple(mul(x, y) for x in a.unit for y in b.unit)
    names = None
    if a.basis_names is not None and b.basis_names is not None:
        names = tuple(f"{an}(x){bn}" for an in a.basis_names for bn in b.basis_names)
    return StructureAlgebra(
        a.field, a.dim * nb, raw, unit, name=name or f"{a.name}(x){b.name}",
        basis_names=names,
    )


def enveloping(a: StructureAlgebra) -> StructureAlgebra:
    """A (x) A^op, the algebra whose left modules are (A, A)-bimodules.

    Built once per instance: every call on `a` returns the same algebra,
    `tensor(a, opposite(a))` named `a.name + "^env"`.  With A's bimodule
    action it holds dim(A)^4 entries; BudgetExceeded above MAX_FREE_ENTRIES.
    """
    _check_entries(a.dim ** 4, a.dim ** 2, f"dim {a.dim ** 2} enveloping algebra")
    return a._enveloping


# JSON ---------------------------------------------------------------


def algebra_to_json(a: StructureAlgebra, trace=None) -> dict:
    fmt = a.field.to_str
    obj: dict = {
        "format": ALGEBRA_FORMAT,
        "name": a.name,
        "field": field_to_json(a.field),
        "dim": a.dim,
    }
    if a.basis_names is not None:
        obj["basis_names"] = list(a.basis_names)
    obj["unit"] = [fmt(x) for x in a.unit]
    mult = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k, v in a.cells[i][j]:
                mult.append([i, j, k, fmt(v)])
    obj["mult"] = mult
    if trace is not None:
        obj["trace"] = [fmt(x) for x in trace]
    return obj


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{what} missing keys {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ParseError(f"{what} has unknown keys {sorted(unknown)}")


def _check_index(x, dim: int, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < dim):
        raise ParseError(f"{what} index {x!r} out of range [0, {dim})")
    return x


def algebra_from_json(obj) -> tuple[StructureAlgebra, tuple | None]:
    """Parse the strict algebra schema; returns (algebra, trace or None)."""
    _require_keys(
        obj, {"format", "name", "field", "dim", "unit", "mult"},
        {"basis_names", "trace"}, "algebra",
    )
    if obj["format"] != ALGEBRA_FORMAT:
        raise ParseError(f"unsupported format {obj['format']!r}")
    if not isinstance(obj["name"], str):
        raise ParseError("algebra name must be a string")
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"bad dim {dim!r}")
    names = obj.get("basis_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != dim or not all(
            isinstance(s, str) for s in names
        ):
            raise ParseError("basis_names must be a list of dim strings")
    unit = obj["unit"]
    if not isinstance(unit, list) or len(unit) != dim:
        raise ParseError("unit must be a list of dim scalars")
    unit_vec = tuple(field.parse_many(unit))
    if not isinstance(obj["mult"], list):
        raise ParseError("mult must be a list")
    mult = {}
    try:  # parsed in `finally`: a malformed scalar before the faulty entry is raised first
        for item in obj["mult"]:
            if not isinstance(item, list) or len(item) != 4:
                raise ParseError(f"mult entry {item!r} is not [i, j, k, scalar]")
            i = _check_index(item[0], dim, "mult")
            j = _check_index(item[1], dim, "mult")
            k = _check_index(item[2], dim, "mult")
            if (i, j, k) in mult:
                raise ParseError(f"duplicate mult entry ({i},{j},{k})")
            mult[i, j, k] = item[3]
    finally:
        values = field.parse_many(list(mult.values()))
    entries = [(i, j, k, v) for (i, j, k), v in zip(mult, values) if v]
    algebra = StructureAlgebra.from_entries(
        field, dim, entries, unit_vec, name=obj["name"], basis_names=names
    )
    trace = None
    if "trace" in obj:
        t = obj["trace"]
        if not isinstance(t, list) or len(t) != dim:
            raise ParseError("trace must be a list of dim scalars")
        trace = tuple(field.parse_many(t))
    return algebra, trace
