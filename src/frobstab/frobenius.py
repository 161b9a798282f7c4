"""Frobenius systems: a nondegenerate trace with a pair of dual bases.

A system on an algebra A is (trace, {a_i}, {b_i}) with, for every a in A,

    sum_i a_i * trace(b_i * a) = a = sum_i trace(a * a_i) * b_i.

The dual bases enter every formula only through the Frobenius element
sum_i a_i (x) b_i = sum_{p,q} C[p][q] e_p (x) e_q, where C = sum_i a_i b_i^T
is `FrobeniusSystem.element_matrix`.  With the Gram matrix
G[i][j] = trace(e_i e_j), the two identities read CG = I (column j is the
left identity at e_j) and GC = I (row j is the right identity at e_j).

`derive_system` builds one from a trace alone: with a_i = e_i, duality
forces b_i = sum_k (G^-1)[i][k] e_k, so C = G^-1, and nondegeneracy of the
trace is exactly invertibility of G.  Systems form a torsor under the
invertible elements (`twist`), and transport to the enveloping algebra
A (x) A^op (`enveloping_system`, built once per system), where C becomes
kron(C, C^T).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    CentralityViolation,
    DegenerateTrace,
    DimensionMismatch,
    DualityViolation,
    NonInvertibleTwist,
    ParseError,
)
from .algebra import StructureAlgebra, enveloping
from .linalg import Matrix


@dataclass(frozen=True)
class FrobeniusSystem:
    algebra: StructureAlgebra
    trace: tuple
    a_basis: tuple[tuple, ...]
    b_basis: tuple[tuple, ...]

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.trace) != n:
            raise DimensionMismatch("trace has wrong length")
        if len(self.a_basis) != n or len(self.b_basis) != n:
            raise DimensionMismatch("dual bases must have dim elements")
        for v in self.a_basis + self.b_basis:
            if len(v) != n:
                raise DimensionMismatch("dual basis element has wrong length")

    @functools.cached_property
    def element_matrix(self) -> Matrix:
        """C = sum_i a_i b_i^T = A^T B, for A and B the matrices whose rows
        are the a_i and the b_i; its row c_p gives sum_i a_i (x) b_i =
        sum_p e_p (x) c_p."""
        f, n = self.algebra.field, self.algebra.dim
        a_t = Matrix.dense(f, n, n, tuple(a_i[p] for p in range(n) for a_i in self.a_basis))
        return a_t @ Matrix.dense(f, n, n, tuple(x for b_i in self.b_basis for x in b_i))

    @functools.cached_property
    def _enveloping(self) -> "FrobeniusSystem":
        """`enveloping_system`'s result, built and checked once per instance."""
        alg = self.algebra
        f, n = alg.field, alg.dim
        env = enveloping(alg)
        trace = _tensor(f, self.trace, self.trace)
        a_basis = []
        b_basis = []
        for i in range(n):
            for j in range(n):
                a_basis.append(_tensor(f, self.a_basis[i], self.b_basis[j]))
                b_basis.append(_tensor(f, self.b_basis[i], self.a_basis[j]))
        return require_identities(FrobeniusSystem(env, trace, tuple(a_basis), tuple(b_basis)))


def gram_matrix(algebra: StructureAlgebra, trace: tuple) -> Matrix:
    """G[i][j] = trace(e_i * e_j)."""
    f = algebra.field
    n = algebra.dim
    if len(trace) != n:
        raise DimensionMismatch("trace has wrong length")
    out = [f.zero] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = f.zero
            for k, v in algebra.cells[i][j]:
                t = trace[k]
                if t:
                    acc = f.add(acc, f.mul(v, t))
            out[i * n + j] = acc
    return Matrix.dense(f, n, n, tuple(out))


def derive_system(algebra: StructureAlgebra, trace: tuple) -> FrobeniusSystem:
    """Dual bases from a trace; DegenerateTrace (with rank deficit) if singular."""
    n = algebra.dim
    g = gram_matrix(algebra, trace)
    ginv = g.inverse()
    if ginv is None:
        deficit = n - g.rank()
        raise DegenerateTrace(
            f"trace Gram matrix has rank deficit {deficit}", witness=deficit
        )
    a_basis = tuple(algebra.basis_vector(i) for i in range(n))
    b_basis = tuple(ginv.row(i) for i in range(n))
    return require_identities(FrobeniusSystem(algebra, tuple(trace), a_basis, b_basis))


def check_identities(system: FrobeniusSystem) -> bool:
    """Both defining identities, on every basis element."""
    return _identity_failure(system) is None


def require_identities(system: FrobeniusSystem) -> FrobeniusSystem:
    """The system itself if check_identities passes; otherwise DualityViolation,
    witnessed by the first basis index that fails."""
    j = _identity_failure(system)
    if j is None:
        return system
    raise DualityViolation(
        f"dual bases fail the Frobenius identities at basis element {j}", witness=j
    )


def _identity_failure(system: FrobeniusSystem) -> int | None:
    """Index of the first basis element where an identity fails, or None.

    Column j of CG is sum_i a_i trace(b_i e_j) and row j of GC is
    sum_i trace(e_j a_i) b_i; both must be e_j.
    """
    alg = system.algebra
    c = system.element_matrix
    g = gram_matrix(alg, system.trace)
    cg, gc = c @ g, g @ c
    for j in range(alg.dim):
        e = alg.basis_vector(j)
        if cg.col(j) != e or gc.row(j) != e:
            return j
    return None


def frobenius_element(system: FrobeniusSystem) -> tuple:
    """sum_i a_i (x) b_i as a vector over the i-major product basis.

    Verifies the centrality property sum_i (a a_i) (x) b_i =
    sum_i a_i (x) (b_i a) on every basis element a before returning; for
    a = e_t the two sides are L(e_t) C and C R(e_t)^T.
    """
    alg = system.algebra
    c = system.element_matrix
    for t, (left, right) in enumerate(zip(alg.left, alg.right)):
        if left @ c != c @ right.transpose():
            raise CentralityViolation(
                f"centrality fails against basis element {t}", witness=t
            )
    return c.entries


def _tensor(field, x: tuple, y: tuple) -> tuple:
    """x (x) y as a vector on the i-major basis: entry i * len(y) + j is
    x_i y_j, and the field's `zero` where either factor is zero."""
    mul, zero = field.mul, field.zero
    return tuple(mul(a, b) if a and b else zero for a in x for b in y)


def element_inverse(algebra: StructureAlgebra, d: tuple) -> tuple | None:
    """Two-sided inverse of d, or None (one-sided suffices in finite dimension)."""
    li = algebra.left_mult_matrix(d).inverse()
    if li is None:
        return None
    return li.apply(algebra.unit)


def twist(system: FrobeniusSystem, d: tuple, side: str = "left") -> FrobeniusSystem:
    """Replace the trace by x |-> trace(x d) (left) or x |-> trace(d x) (right).

    d must be invertible; the dual bases adjust to {a_i d^-1} / {d^-1 b_i}
    so the identities keep holding exactly.
    """
    alg = system.algebra
    d_inv = element_inverse(alg, d)
    if d_inv is None:
        raise NonInvertibleTwist("twist element is not invertible", witness=tuple(d))
    trace = Matrix.dense(alg.field, 1, alg.dim, system.trace)
    if side == "left":
        new_trace = (trace @ alg.right_mult_matrix(d)).entries
        a_basis = tuple(alg.mul(a, d_inv) for a in system.a_basis)
        b_basis = system.b_basis
    elif side == "right":
        new_trace = (trace @ alg.left_mult_matrix(d)).entries
        a_basis = system.a_basis
        b_basis = tuple(alg.mul(d_inv, b) for b in system.b_basis)
    else:
        raise ParseError(f"twist side must be 'left' or 'right', got {side!r}")
    return require_identities(FrobeniusSystem(alg, new_trace, a_basis, b_basis))


def enveloping_system(system: FrobeniusSystem) -> FrobeniusSystem:
    """Transport to A (x) A^op: trace (x) trace with dual bases
    {a_i (x) b_j} and {b_i (x) a_j}, indexed by the same (i, j) pairs.
    One instance per system: every call on `system` returns the same
    system, whose identities were checked when it was built."""
    return system._enveloping
