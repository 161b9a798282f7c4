"""Frobenius systems: a nondegenerate trace with its Frobenius matrix.

A system on an algebra A is (trace, C), for C the Frobenius matrix
(`FrobeniusSystem.element_matrix`) of the Frobenius element
sum_{p,q} C[p][q] e_p (x) e_q.  With a_i = e_i and b_i = c_i, the i-th
row of C, ({a_i}, {b_i}) is a pair of dual bases: for every a in A,

    sum_i a_i * trace(b_i * a) = a = sum_i trace(a * a_i) * b_i,

and any pair of dual bases gives C back as sum_i a_i b_i^T.  With the
Gram matrix G[i][j] = trace(e_i e_j), the two identities read CG = I
(column j is the left identity at e_j) and GC = I (row j is the right
identity at e_j), so C = G^-1, and nondegeneracy of the trace is exactly
invertibility of G; `derive_system` builds a system from a trace alone.
Systems form a torsor under the invertible elements (`twist`), and
transport to the enveloping algebra A (x) A^op (`enveloping_system`,
built once per system), where C becomes kron(C, C^T).
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
from .algebra import StructureAlgebra, enveloping, _first_failing
from .linalg import Matrix, _check_same_field, kron


@dataclass(frozen=True)
class FrobeniusSystem:
    """A trace (dim A field scalars) and its dim A x dim A Frobenius matrix
    C; the identities are checked by `require_identities`, not here."""

    algebra: StructureAlgebra
    trace: tuple
    element_matrix: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.trace) != n:
            raise DimensionMismatch("trace has wrong length")
        if self.element_matrix.shape != (n, n):
            raise DimensionMismatch("Frobenius matrix must be dim x dim")
        _check_same_field(self.algebra.field, self.element_matrix.field)

    @functools.cached_property
    def _enveloping(self) -> "FrobeniusSystem":
        """`enveloping_system`'s result, built and checked once per instance."""
        c = self.element_matrix
        t = Matrix.dense(self.algebra.field, 1, self.algebra.dim, self.trace)
        env = FrobeniusSystem(enveloping(self.algebra), kron(t, t).entries, kron(c, c.transpose()))
        return require_identities(env)


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
    """The system with C = G^-1; DegenerateTrace (with rank deficit) if G
    is singular."""
    n = algebra.dim
    g = gram_matrix(algebra, trace)
    ginv = g.inverse()
    if ginv is None:
        deficit = n - g.rank()
        raise DegenerateTrace(
            f"trace Gram matrix has rank deficit {deficit}", witness=deficit
        )
    return _require(FrobeniusSystem(algebra, tuple(trace), ginv), g)


def check_identities(system: FrobeniusSystem) -> bool:
    """Both defining identities, on every basis element."""
    return _identity_failure(system, gram_matrix(system.algebra, system.trace)) is None


def require_identities(system: FrobeniusSystem) -> FrobeniusSystem:
    """The system itself if check_identities passes; otherwise DualityViolation,
    witnessed by the first basis index that fails."""
    return _require(system, gram_matrix(system.algebra, system.trace))


def _require(system: FrobeniusSystem, g: Matrix) -> FrobeniusSystem:
    """`require_identities`, against the system's Gram matrix g."""
    j = _identity_failure(system, g)
    if j is None:
        return system
    raise DualityViolation(
        f"dual bases fail the Frobenius identities at basis element {j}", witness=j
    )


def _identity_failure(system: FrobeniusSystem, g: Matrix) -> int | None:
    """Index of the first basis element where an identity fails, or None,
    for g the system's Gram matrix.

    Column j of CG is sum_i a_i trace(b_i e_j) and row j of GC is
    sum_i trace(e_j a_i) b_i; both must be e_j.
    """
    n = system.algebra.dim
    c = system.element_matrix
    eye = Matrix.identity(c.field, n)
    cg, gc = c @ g, g @ c
    if cg == eye and gc == eye:
        return None
    bad = [t % n for t, _ in (cg - eye).nonzeros[1]]
    return min(bad + [t // n for t, _ in (gc - eye).nonzeros[1]])


def frobenius_element(system: FrobeniusSystem) -> tuple:
    """The Frobenius element sum_i a_i (x) b_i as a vector over the i-major
    product basis: C's row-major entries.

    Verifies the centrality property sum_i (a a_i) (x) b_i =
    sum_i a_i (x) (b_i a) before returning; for a = e_t the two sides are
    L(e_t) C and C R(e_t)^T, read by `_first_failing`.  Precondition: A
    passes `validate`, so that L(g a) = L(g) L(a) and R(g a) = R(a) R(g).
    """
    alg = system.algebra
    c = system.element_matrix
    t = _first_failing(alg, lambda t: alg.left[t] @ c != c @ alg.right[t].transpose())
    if t is not None:
        raise CentralityViolation(f"centrality fails against basis element {t}", witness=t)
    return c.entries


def element_inverse(algebra: StructureAlgebra, d: tuple) -> tuple | None:
    """Two-sided inverse of d, or None (one-sided suffices in finite dimension)."""
    li = algebra.left_mult_matrix(d).inverse()
    if li is None:
        return None
    return li.apply(algebra.unit)


def twist(system: FrobeniusSystem, d: tuple, side: str = "left") -> FrobeniusSystem:
    """Replace the trace by x |-> trace(x d) (left) or x |-> trace(d x) (right).

    d must be invertible.  The dual bases move to {a_i d^-1}, {b_i} (left)
    or {a_i}, {d^-1 b_i} (right), so C moves to R(d^-1) C or C L(d^-1)^T,
    for R and L the right and left multiplication matrices, and the
    identities keep holding exactly.
    """
    alg = system.algebra
    d_inv = element_inverse(alg, d)
    if d_inv is None:
        raise NonInvertibleTwist("twist element is not invertible", witness=tuple(d))
    trace = Matrix.dense(alg.field, 1, alg.dim, system.trace)
    if side == "left":
        new_trace = (trace @ alg.right_mult_matrix(d)).entries
        c = alg.right_mult_matrix(d_inv) @ system.element_matrix
    elif side == "right":
        new_trace = (trace @ alg.left_mult_matrix(d)).entries
        c = system.element_matrix @ alg.left_mult_matrix(d_inv).transpose()
    else:
        raise ParseError(f"twist side must be 'left' or 'right', got {side!r}")
    return require_identities(FrobeniusSystem(alg, new_trace, c))


def enveloping_system(system: FrobeniusSystem) -> FrobeniusSystem:
    """Transport to A (x) A^op: trace (x) trace with C' = kron(C, C^T), the
    Frobenius matrix of the dual bases {a_i (x) b_j} and {b_i (x) a_j},
    indexed by the same (i, j) pairs.  One instance per system: every call
    on `system` returns the same system, whose identities were checked when
    it was built."""
    return system._enveloping
