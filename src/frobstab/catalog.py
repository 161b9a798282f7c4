"""Built-in instances: truncated polynomial rings and small group algebras.

Basis enumerations are fixed once and for all:

* k[x]/(x^n): 1, x, ..., x^(n-1); trace picks the top coefficient, and
  C[i][n-1-i] = 1, so the dual bases ({e_i}, rows of C) are a_i = x^i,
  b_i = x^(n-1-i);
* cyclic(k): e, g, g^2, ...; klein4: e, a, b, ab; s3: e, r, r2, s, rs, r2s
  (r a 3-cycle, s a transposition, products composed right-to-left);
* group algebras carry the identity-coefficient trace and C[g][g^-1] = 1,
  the dual bases {g} and {g^-1}.

`truncated_polynomial`, `group_algebra`, `truncated_module` and
`trivial_module` return one shared instance per tuple of argument values,
however they are passed, so the structure cached on an algebra, on a
module or on a module's matrices is computed once per process; the
instances are kept for the life of the process.  A shared module is over
the shared algebra, so `cache_clear` on any of them clears them all, and
the shared modules of `modrep` too.
Orders read from outside (`group_from_string`, `check_order`) must lie in
[1, MAX_ORDER], which is checked before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAGroup,
    NotAGroupAlgebra,
    NotAssociative,
    ParseError,
    UnitMismatch,
)
from .algebra import StructureAlgebra
from .exactfield import Field
from .frobenius import FrobeniusSystem, require_identities
from .linalg import Matrix
from .modrep import ModuleRep, _one_instance_per_arguments


# Largest order accepted from outside.  A cyclic table of order k costs k^3
# associativity checks and k[x]/(x^n) about n^2/2 products, so 64 keeps both
# well under a second; the documented examples and the benchmark stay at or
# below 24.
MAX_ORDER = 64


def check_order(n: int, what: str, least: int = 1) -> int:
    """Reject a number read from outside that is below `least` or above
    MAX_ORDER: an order, or with least = 0 a step count."""
    if n < least:
        raise ParseError(f"{what} {n} is below {least}", witness=n)
    if n > MAX_ORDER:
        raise ParseError(f"{what} {n} is above {MAX_ORDER}", witness=n)
    return n


class AlgebraInstance(NamedTuple):
    algebra: StructureAlgebra
    system: FrobeniusSystem


@dataclass(frozen=True)
class GroupTable:
    """A finite group by its multiplication table; mult[i][j] = index of g_i g_j."""

    name: str
    names: tuple[str, ...]
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity: int = 0

    def __post_init__(self):
        n = len(self.names)
        if len(self.mult) != n or len(self.inverse) != n or any(len(r) != n for r in self.mult):
            raise DimensionMismatch(f"group {self.name}: needs an {n}x{n} table, {n} inverses")
        indices = [x for r in self.mult for x in r] + [*self.inverse, self.identity]
        bad = [x for x in indices if not 0 <= x < n]
        if bad:
            raise IndexOutOfRange(f"group {self.name}: index {bad[0]} outside [0, {n})",
                                  witness=bad[0])
        e = self.identity
        for i in range(n):
            if self.mult[e][i] != i or self.mult[i][e] != i:
                raise UnitMismatch(f"group {self.name}: identity fails on {i}", witness=i)
            if self.mult[i][self.inverse[i]] != e or self.mult[self.inverse[i]][i] != e:
                raise NotAGroup(f"group {self.name}: inverse fails on {i}", witness=i)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.mult[self.mult[i][j]][k] != self.mult[i][self.mult[j][k]]:
                        raise NotAssociative(
                            f"group {self.name}: not associative on {(i, j, k)}",
                            witness=(i, j, k),
                        )

    @property
    def order(self) -> int:
        return len(self.names)


def cyclic_group(k: int) -> GroupTable:
    if k < 1:
        raise IndexOutOfRange("cyclic group order must be >= 1")
    names = tuple("e" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(k))
    mult = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    inverse = tuple((-i) % k for i in range(k))
    return GroupTable(f"cyclic_{k}", names, mult, inverse)


def klein_four_group() -> GroupTable:
    names = ("e", "a", "b", "ab")
    mult = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    return GroupTable("klein4", names, mult, (0, 1, 2, 3))


def symmetric_group_3() -> GroupTable:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    names = ("e", "r", "r2", "s", "rs", "r2s")
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[t]] for t in range(3))

    mult = tuple(
        tuple(index[compose(perms[i], perms[j])] for j in range(6)) for i in range(6)
    )
    inverse = tuple(
        index[tuple(sorted(range(3), key=lambda t: perms[i][t]))] for i in range(6)
    )
    return GroupTable("s3", names, mult, inverse)


def group_from_string(text: str) -> GroupTable:
    """Parse a group name: "cyclic:k", "klein4", or "s3"."""
    if text == "klein4":
        return klein_four_group()
    if text == "s3":
        return symmetric_group_3()
    if text.startswith("cyclic:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad cyclic order in {text!r}") from None
        return cyclic_group(check_order(k, "cyclic order"))
    raise ParseError(f"unknown group {text!r}")


@_one_instance_per_arguments
def group_algebra(g: GroupTable, field: Field) -> AlgebraInstance:
    """kG with its standard Frobenius system (trace = identity coefficient)."""
    n = g.order
    one = field.one
    entries = [(i, j, g.mult[i][j], one) for i in range(n) for j in range(n)]
    alg = StructureAlgebra.from_entries(
        field, n, entries,
        unit=tuple(one if i == g.identity else field.zero for i in range(n)),
        name=g.name, basis_names=g.names, group=g,
    )
    trace = tuple(one if i == g.identity else field.zero for i in range(n))
    c = Matrix(field, n, n, (1, [(i * n + g.inverse[i], 1) for i in range(n)]))
    return AlgebraInstance(alg, require_identities(FrobeniusSystem(alg, trace, c)))


@_one_instance_per_arguments
def truncated_polynomial(n: int, field: Field) -> AlgebraInstance:
    """k[x]/(x^n) with the top-coefficient trace and C[i][n-1-i] = 1."""
    if n < 1:
        raise IndexOutOfRange("truncation order must be >= 1")
    one = field.one
    entries = [
        (i, j, i + j, one) for i in range(n) for j in range(n) if i + j < n
    ]
    names = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    alg = StructureAlgebra.from_entries(
        field, n, entries,
        unit=tuple(one if i == 0 else field.zero for i in range(n)),
        name=f"trunc_poly_{n}", basis_names=names,
    )
    trace = tuple(one if i == n - 1 else field.zero for i in range(n))
    c = Matrix(field, n, n, (1, [(i * n + n - 1 - i, 1) for i in range(n)]))
    return AlgebraInstance(alg, require_identities(FrobeniusSystem(alg, trace, c)))


@_one_instance_per_arguments
def truncated_module(n: int, i: int, field: Field) -> ModuleRep:
    """V_i = k[x]/(x^(i+1)) as a module over k[x]/(x^n); V_(n-1) is regular."""
    alg = truncated_polynomial(n, field).algebra
    if not 0 <= i < n:
        raise IndexOutOfRange(f"module index {i} outside [0, {n})")
    d = i + 1
    mats = tuple(Matrix(field, d, d, (1, [((c + j) * d + c, 1) for c in range(d - j)]))
                 for j in range(n))
    return ModuleRep(alg, d, mats, name=f"V{i}")


def truncated_projection(n: int, j: int, i: int, field: Field) -> Matrix:
    """The quotient map V_j -> V_i (kill x^(i+1) and above); needs j >= i."""
    if not 0 <= i <= j < n:
        raise IndexOutOfRange(f"need 0 <= {i} <= {j} < {n}")
    zero, one = field.zero, field.one
    rows = [[zero] * (j + 1) for _ in range(i + 1)]
    for t in range(i + 1):
        rows[t][t] = one
    return Matrix.from_rows(field, rows, ncols=j + 1)


def trivial_module(algebra: StructureAlgebra) -> ModuleRep:
    """The one-dimensional module where every group element acts as 1.
    The group is checked on every call, as algebras equal by value can
    differ in it."""
    if algebra.group is None:
        raise NotAGroupAlgebra("trivial module needs a group algebra")
    return _trivial_module(algebra)


@_one_instance_per_arguments
def _trivial_module(algebra: StructureAlgebra) -> ModuleRep:
    one_mat = Matrix.identity(algebra.field, 1)
    return ModuleRep(algebra, 1, tuple(one_mat for _ in range(algebra.dim)), name="trivial")
